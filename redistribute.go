package distal

import (
	"context"
	"fmt"
	"strings"
)

// Redistribute compiles, through the plan cache, a plan that moves tensor t
// into the dst format on the session's machine (§1: "easily transform data
// between distributed layouts to match the computation"). It is compiled
// through the ordinary pipeline — an identity statement whose output is
// placed under the destination format and whose loops are distributed
// owner-computes over the destination — so the runtime discovers exactly
// the copies the layout change requires, prices them, and (in a real run)
// performs them.
//
// The returned tensor is the destination, zeroed when t has data; after
// plan.Bind(dst, t).Run its Data holds t's contents.
func (s *Session) Redistribute(t *Tensor, dst Format) (*Plan, *Tensor, error) {
	if len(t.Shape) == 0 || len(t.Shape) > 6 {
		return nil, nil, fmt.Errorf("distal: redistribute supports ranks 1..6, got %d", len(t.Shape))
	}
	if t.Format.Placement == nil || dst.Placement == nil {
		return nil, nil, fmt.Errorf("distal: redistribute source or destination format is empty (use ParseFormat)")
	}
	out := NewTensor(t.Name+"_r", dst, t.Shape...)
	if t.Data != nil {
		out.Zero()
	}
	req := redistributeRequest(out.Name, t.Name, t.Shape, t.Format.Placement.String(), dst.Placement.String(), s.machine.Processors())
	plan, err := s.Compile(context.Background(), req)
	if err != nil {
		return nil, nil, err
	}
	return plan, out, nil
}

// RedistributeCost simulates the layout change under the session's cost
// model and returns moved bytes and simulated seconds without touching
// data.
func (s *Session) RedistributeCost(t *Tensor, dst Format) (bytes int64, seconds float64, err error) {
	plan, _, err := s.Redistribute(t, dst)
	if err != nil {
		return 0, 0, err
	}
	res, err := plan.Simulate(context.Background())
	if err != nil {
		return 0, 0, err
	}
	return res.IntraBytes + res.InterBytes, res.Time, nil
}

// redistributeRequest is the layout change of tensor src, of the given
// shape, from format srcFmt into tensor dst under dstFmt: the identity
// statement dst = src, owner-computes over the destination — the leading
// dimension divided across all procs leaf processors and every tensor's
// communication aggregated at the task level. This is correct for any
// (src, dst) placement pair: reads gather from the source owners, writes
// flush to the destination owners. Being a request, the layout change is
// itself a storable workload that the plan cache holds like any other.
func redistributeRequest(dst, src string, shape []int, srcFmt, dstFmt string, procs int) Request {
	vars := []string{"i", "j", "k", "l", "u", "v"}[:len(shape)]
	idx := strings.Join(vars, ",")
	return Request{
		Stmt:    fmt.Sprintf("%s(%s) = %s(%s)", dst, idx, src, idx),
		Shapes:  map[string][]int{src: shape, dst: shape},
		Formats: map[string]string{src: srcFmt, dst: dstFmt},
		Schedule: fmt.Sprintf("divide(%s,d0,d0i,%d) reorder(%s) distribute(d0) communicate(d0,%s,%s)",
			vars[0], procs, strings.Join(append([]string{"d0", "d0i"}, vars[1:]...), ","), dst, src),
	}
}
