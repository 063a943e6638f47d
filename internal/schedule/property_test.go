package schedule

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"distal/internal/ir"
)

// TestValueRoundTripProperty: for random divide/split chains over random
// extents, enumerating all loop-order assignments and reconstructing the
// original variables must visit every point of the original iteration space
// exactly once. This is the invariant the compiler's correctness rests on.
func TestValueRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ni, nj, nk := rng.Intn(7)+1, rng.Intn(7)+1, rng.Intn(7)+1
		s := New(ir.MustParse("A(i,j) = B(i,k) * C(k,j)"))
		// Apply 0-3 random transformations.
		fresh := 0
		name := func() string {
			fresh++
			return fmt.Sprintf("v%d", fresh)
		}
		for n := rng.Intn(4); n > 0; n-- {
			order := s.Order()
			target := order[rng.Intn(len(order))]
			o, i := name(), name()
			if rng.Intn(2) == 0 {
				s.Divide(target, o, i, rng.Intn(3)+1)
			} else {
				s.Split(target, o, i, rng.Intn(3)+1)
			}
		}
		if s.Err() != nil {
			return false
		}
		ext, err := s.Extents(map[string]int{"i": ni, "j": nj, "k": nk})
		if err != nil {
			return false
		}
		// Enumerate the transformed loop nest.
		ev := evalByName(s, ext)
		order := s.Order()
		counts := map[[3]int]int{}
		env := map[string]int{}
		var walk func(d int)
		walk = func(d int) {
			if d == len(order) {
				vals, ok := ev.value(env)
				if !ok {
					return
				}
				counts[[3]int{vals["i"], vals["j"], vals["k"]}]++
				return
			}
			for x := 0; x < ext[order[d]]; x++ {
				env[order[d]] = x
				walk(d + 1)
			}
			delete(env, order[d])
		}
		walk(0)
		if len(counts) != ni*nj*nk {
			return false
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalSoundnessProperty: the interval computed for a partial
// environment must contain every value reachable by completing that
// environment.
func TestIntervalSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ni := rng.Intn(9) + 1
		s := New(ir.MustParse("A(i,j) = B(i,k) * C(k,j)"))
		s.Divide("i", "io", "ii", rng.Intn(3)+1)
		s.Split("k", "ko", "ki", rng.Intn(3)+1)
		if s.Err() != nil {
			return false
		}
		ext, err := s.Extents(map[string]int{"i": ni, "j": 2, "k": 5})
		if err != nil {
			return false
		}
		// Fix a random subset of the order.
		env := map[string]int{}
		for _, v := range s.Order() {
			if rng.Intn(2) == 0 {
				env[v] = rng.Intn(ext[v])
			}
		}
		ev := evalByName(s, ext)
		ivs := ev.intervals(env)
		// Complete the environment in all ways; every reached value must be
		// inside the interval.
		free := []string{}
		for _, v := range s.Order() {
			if _, ok := env[v]; !ok {
				free = append(free, v)
			}
		}
		ok := true
		var walk func(d int)
		walk = func(d int) {
			if !ok {
				return
			}
			if d == len(free) {
				vals, in := ev.value(env)
				if !in {
					return
				}
				for name, v := range vals {
					iv := ivs[name]
					if v < iv.Lo || v >= iv.Hi {
						ok = false
					}
				}
				return
			}
			for x := 0; x < ext[free[d]]; x++ {
				env[free[d]] = x
				walk(d + 1)
			}
			delete(env, free[d])
		}
		walk(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
