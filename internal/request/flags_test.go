package request

import (
	"reflect"
	"testing"

	"distal/internal/ir"
)

func TestParseShapes(t *testing.T) {
	gemm := "A(i,j) = B(i,k) * C(k,j)"
	square := func(n int) []int { return []int{n, n} }
	cases := []struct {
		name  string
		stmts []string
		src   string
		n     int
		want  map[string][]int
	}{
		{"explicit", []string{gemm}, "A=4x8,B=4x2,C=2x8", 0,
			map[string][]int{"A": {4, 8}, "B": {4, 2}, "C": {2, 8}}},
		{"whitespace", []string{gemm}, " A = 4 x 8 , B=4x2 ,C=2x8", 0,
			map[string][]int{"A": {4, 8}, "B": {4, 2}, "C": {2, 8}}},
		{"explicit wins over n", []string{gemm}, "B=3", 16, map[string][]int{"B": {3}}},
		{"one dimension", []string{"a(i) = b(i)"}, "a=5,b=5", 0, map[string][]int{"a": {5}, "b": {5}}},
		{"n, one statement declares every tensor", []string{gemm}, "", 16,
			map[string][]int{"A": square(16), "B": square(16), "C": square(16)}},
		{"n, ranks follow the accesses", []string{"A(i,l) = B(i,j,k) * C(j,l) * D(k,l)"}, "", 2,
			map[string][]int{"A": {2, 2}, "B": {2, 2, 2}, "C": {2, 2}, "D": {2, 2}}},
		{"n, program declares leaf inputs only",
			[]string{"D(i,j) = A(i,k) * B(k,j)", "E(i,j) = D(i,k) * C(k,j)"}, "", 8,
			map[string][]int{"A": square(8), "B": square(8), "C": square(8)}},
		{"n, scalar output", []string{"a = B(i,j,k) * C(i,j,k)"}, "", 4,
			map[string][]int{"a": {1}, "B": {4, 4, 4}, "C": {4, 4, 4}}},
		{"n, scalar input", []string{"A(i,j) = B(i,j) * s"}, "", 4,
			map[string][]int{"A": square(4), "B": square(4), "s": {1}}},
		{"n, scalar leaf of a program", []string{"D(i,j) = A(i,j) * s", "E(i,j) = D(i,j) * B(i,j)"}, "", 4,
			map[string][]int{"A": square(4), "B": square(4), "s": {1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseShapes(c.stmts, c.src, c.n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("ParseShapes = %v, want %v", got, c.want)
			}
		})
	}
}

func TestParseShapesErrors(t *testing.T) {
	gemm := []string{"A(i,j) = B(i,k) * C(k,j)"}
	bad := "A(i,j = B(i,j)"
	_, parseErr := ir.Parse(bad)
	cases := []struct {
		name  string
		stmts []string
		src   string
		n     int
		want  string
	}{
		{"neither", gemm, "", 0, "give -shapes or a positive -n"},
		{"negative n", gemm, "", -3, "give -shapes or a positive -n"},
		{"no equals", gemm, "A=4x4,B", 0, `bad -shapes entry "B" (want NAME=AxBxC)`},
		{"not a number", gemm, "A=4xq", 0, `bad dimension "q" in -shapes entry "A=4xq"`},
		{"zero extent", gemm, "A=4x0", 0, `bad dimension "0" in -shapes entry "A=4x0"`},
		{"negative extent", gemm, "A=-4x4", 0, `bad dimension "-4" in -shapes entry "A=-4x4"`},
		{"empty dimension", gemm, "A=4x", 0, `bad dimension "" in -shapes entry "A=4x"`},
		{"upper-case separator", gemm, "A=4X4", 0, `bad dimension "4X4" in -shapes entry "A=4X4"`},
		{"bad statement", []string{bad}, "", 4, parseErr.Error()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseShapes(c.stmts, c.src, c.n)
			if err == nil {
				t.Fatalf("ParseShapes accepted %q (n=%d)", c.src, c.n)
			}
			if err.Error() != c.want {
				t.Errorf("error %q, want %q", err, c.want)
			}
		})
	}
}

func TestParseFormats(t *testing.T) {
	cases := []struct {
		src  string
		want map[string]string
	}{
		{"", nil},
		{"A=xy->xy", map[string]string{"A": "xy->xy"}},
		{" A = xy->xy , B=xy->** ,C=xyz->xy0; xy->x",
			map[string]string{"A": "xy->xy", "B": "xy->**", "C": "xyz->xy0; xy->x"}},
	}
	for _, c := range cases {
		got, err := ParseFormats(c.src)
		if err != nil {
			t.Fatalf("ParseFormats(%q): %v", c.src, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseFormats(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	for src, want := range map[string]string{
		"A":             `bad -formats entry "A" (want NAME=notation)`,
		"A=xy->xy,,B=x": `bad -formats entry "" (want NAME=notation)`,
	} {
		if _, err := ParseFormats(src); err == nil || err.Error() != want {
			t.Errorf("ParseFormats(%q) error %v, want %q", src, err, want)
		}
	}
}

func TestParseGrid(t *testing.T) {
	cases := map[string][]int{
		"16":      {16},
		"4x4":     {4, 4},
		"4X4":     {4, 4},
		" 4 x 4 ": {4, 4},
		"2x2x2":   {2, 2, 2},
		"2x2x2x2": {2, 2, 2, 2},
	}
	for src, want := range cases {
		got, err := ParseGrid(src)
		if err != nil {
			t.Fatalf("ParseGrid(%q): %v", src, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseGrid(%q) = %v, want %v", src, got, want)
		}
	}
	for _, src := range []string{"", "x", "0x4", "4x-1", "4x", "four", "4*4"} {
		want := `bad grid "` + src + `" (want e.g. 16, 4x4, 2x2x2)`
		if _, err := ParseGrid(src); err == nil || err.Error() != want {
			t.Errorf("ParseGrid(%q) error %v, want %q", src, err, want)
		}
	}
}
