package schedule

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"distal/internal/ir"
)

func TestCommandStringForm(t *testing.T) {
	s := New(gemm()).
		Divide("i", "io", "ii", 4).Divide("j", "jo", "ji", 4).
		Reorder("io", "jo", "ii", "ji").
		Distribute("io", "jo").
		Communicate("jo", "A")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	want := "divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) communicate(jo,A)"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	for _, src := range []string{
		"divide(i,io,ii)",    // wrong arity
		"divide(i,io,ii,x)",  // non-integer param
		"frobnicate(i)",      // unknown command
		"divide(i,io,ii,4",   // missing paren
		"reorder()",          // no vars
		"communicate(jo)",    // no tensors
		"divide(i,i o,ii,4)", // bad token
		"divide(i,,ii,4)",    // empty arg
		"42(i)",              // bad command name
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestFluentRejectsUnserializableNames: names the textual grammar cannot
// carry must fail at command time, never produce text Parse rejects.
func TestFluentRejectsUnserializableNames(t *testing.T) {
	if err := New(gemm()).Divide("i", "i-out", "i-in", 4).Err(); err == nil {
		t.Error("Divide accepted a fresh name with '-'")
	}
	if err := New(gemm()).Substitute([]string{"i", "j", "k"}, "cuBLAS-GEMM").Err(); err == nil {
		t.Error("Substitute accepted a kernel name with '-'")
	}
	s := New(gemm()).Substitute([]string{"i", "j", "k"}, "BLAS.GEMM")
	if err := s.Err(); err != nil {
		t.Errorf("dotted kernel name rejected: %v", err)
	}
	if _, err := FromText(gemm(), s.String()); err != nil {
		t.Errorf("serialized substitute does not re-parse: %v", err)
	}
}

func TestParseSeparators(t *testing.T) {
	cs, err := Parse("divide(i,io,ii,4);\n  split(k, ko, ki, 16)\t reorder(io,ii)")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 || cs[0].Op != "divide" || cs[1].Op != "split" || cs[2].Op != "reorder" {
		t.Fatalf("cs = %v", cs)
	}
	if cs[1].Args[3] != "16" {
		t.Fatalf("split args = %v", cs[1].Args)
	}
}

func TestFromTextMatchesFluent(t *testing.T) {
	fluent := New(gemm()).
		Divide("i", "io", "ii", 3).Divide("j", "jo", "ji", 3).
		Reorder("io", "jo", "ii", "ji").
		Distribute("io", "jo").
		Divide("k", "ko", "ki", 3).
		Reorder("io", "jo", "ko", "ii", "ji", "ki").
		Rotate("ko", []string{"io", "jo"}, "kos").
		Communicate("jo", "A").
		Communicate("kos", "B", "C").
		Substitute([]string{"ii", "ji", "ki"}, "BLAS.GEMM")
	if err := fluent.Err(); err != nil {
		t.Fatal(err)
	}
	parsed, err := FromText(gemm(), fluent.String())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Commands().Equal(fluent.Commands()) {
		t.Fatalf("commands differ:\n  fluent: %s\n  parsed: %s", fluent, parsed)
	}
	if fmt.Sprint(parsed.Order()) != fmt.Sprint(fluent.Order()) {
		t.Fatalf("order differs: %v vs %v", parsed.Order(), fluent.Order())
	}
	if fmt.Sprint(parsed.Distributed()) != fmt.Sprint(fluent.Distributed()) {
		t.Fatalf("distributed differs: %v vs %v", parsed.Distributed(), fluent.Distributed())
	}
	if parsed.Notation() != fluent.Notation() || parsed.String() != fluent.String() {
		t.Fatalf("state differs:\n  fluent: %s; %s\n  parsed: %s; %s", fluent.Notation(), fluent, parsed.Notation(), parsed)
	}
}

// TestSerializeRoundTripProperty: for random valid command chains s,
// Parse(String(s)) applied to a fresh schedule over the same statement
// reproduces the command log, the loop order, and the full schedule state.
func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
		s := New(stmt)
		fresh := 0
		name := func() string {
			fresh++
			return fmt.Sprintf("v%d", fresh)
		}
		tensors := []string{"A", "B", "C"}
		for n := rng.Intn(6); n > 0; n-- {
			order := s.Order()
			target := order[rng.Intn(len(order))]
			switch rng.Intn(6) {
			case 0:
				s.Divide(target, name(), name(), rng.Intn(4)+1)
			case 1:
				s.Split(target, name(), name(), rng.Intn(4)+1)
			case 2:
				// Reorder a random shuffle of the current order.
				shuffled := append([]string(nil), order...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				s.Reorder(shuffled...)
			case 3:
				s.Communicate(target, tensors[rng.Intn(len(tensors))])
			case 4:
				s.Parallelize(target)
			case 5:
				s.Rotate(target, nil, name())
			}
			if s.Err() != nil {
				return true // invalid chains are out of scope
			}
		}
		text := s.String()
		rt, err := FromText(ir.MustParse("A(i,j) = B(i,k) * C(k,j)"), text)
		if err != nil {
			t.Logf("seed %d: FromText(%q) failed: %v", seed, text, err)
			return false
		}
		if !rt.Commands().Equal(s.Commands()) {
			t.Logf("seed %d: commands differ: %q vs %q", seed, rt.String(), text)
			return false
		}
		if fmt.Sprint(rt.Order()) != fmt.Sprint(s.Order()) ||
			fmt.Sprint(rt.Distributed()) != fmt.Sprint(s.Distributed()) ||
			rt.Notation() != s.Notation() || rt.String() != s.String() {
			t.Logf("seed %d: state differs for %q", seed, text)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
