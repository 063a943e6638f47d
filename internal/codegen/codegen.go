// Package codegen renders compiled Legion programs as human-readable
// listings, mirroring the structure of the code DISTAL emits: region
// declarations with their placements, then the control program of index
// task launches with per-point region requirements. Golden tests pin the
// output so compiler changes that alter the generated program are visible.
package codegen

import (
	"fmt"
	"strings"

	"distal/internal/legion"
)

// Program renders the whole program. maxPoints bounds how many task points
// are listed per launch (0 means all).
func Program(p *legion.Program, maxPoints int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q on %s\n", p.Name, p.Machine)
	for _, r := range p.Regions {
		place := "unplaced (leaf 0)"
		if r.Placement != nil {
			place = r.Placement.String()
		}
		fmt.Fprintf(&b, "region %s%v place %s\n", r.Name, r.Shape, place)
	}
	for _, l := range p.Launches {
		fmt.Fprintf(&b, "index_launch %s over %s\n", l.Name, l.Domain)
		n := l.Domain.Size()
		shown := n
		if maxPoints > 0 && maxPoints < n {
			shown = maxPoints
		}
		for i := 0; i < shown; i++ {
			reqs := make([]string, len(l.Regions))
			for t := range reqs {
				reqs[t] = l.Req(i, t).String()
			}
			fmt.Fprintf(&b, "  task%v: %s\n", l.Domain.Delinearize(i), strings.Join(reqs, " "))
		}
		if shown < n {
			fmt.Fprintf(&b, "  ... %d more points\n", n-shown)
		}
	}
	return b.String()
}
