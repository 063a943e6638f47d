package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"distal"
	"distal/internal/obs"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// handleRun is real execution over the wire: a data-free distal.Request
// rides in the body's JSON section, the tensors the plan binds follow as
// wire frames in its frame order (or are filled server-side), the plan
// resolves through the session cache, BindBatch(...).Run executes on a
// worker slot under the request deadline, and the computed output tensor
// streams back as one frame with the run's metrics in Distal-* headers.
//
// Accepted bodies:
//
//	application/x-distal-run   u32 JSON length | wire.RunRequest | frames
//	application/json           bare wire.RunRequest, all inputs filled
//
// A "batch": N request executes N problem instances through one cached
// plan in a single launch walk (Plan.BindBatch): frames arrive
// back-to-back in instance-major order, fills materialize per instance
// (rand seeds offset by instance index), and the surviving instances'
// output frames stream back concatenated in instance order with
// per-instance status in the Distal-Batch-* headers. An instance whose
// frame decodes but disagrees with the declared shape fails alone — the
// batch is not torn down unless every instance fails.
//
// Failure mapping: malformed wire bytes and bad directives are KindParse
// (400); well-formed frames whose shape or rank disagrees with the declared
// request, missing frames, trailing garbage, non-positive or over-the-cap
// batch counts, and shapes whose tensors (bound, intermediate and output,
// times the batch) would not fit the run body limit are KindInput (422);
// nothing client-caused ever maps to 500.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	mt, ok := s.contentType(w, r, wire.ContentTypeRun, "application/json")
	if !ok {
		return
	}
	framed := mt == wire.ContentTypeRun
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRunBody)
	defer io.Copy(io.Discard, body) //nolint:errcheck — drain for keep-alive

	var q wire.RunRequest
	if framed {
		section, err := wire.ReadJSONSection(body)
		if err != nil {
			s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "run", Err: err})
			return
		}
		if err := unmarshalStrict(section, &q); err != nil {
			s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "run", Err: err})
			return
		}
	} else {
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "run", Err: err})
			return
		}
	}
	for name, fill := range q.Inputs {
		if !wire.ValidFill(fill) {
			s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "run",
				Err: fmt.Errorf("tensor %s: bad inputs directive %q", name, fill)})
			return
		}
		if fill == wire.FillWire && !framed {
			s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "run",
				Err: fmt.Errorf("tensor %s is marked %q, which needs Content-Type %s", name, wire.FillWire, wire.ContentTypeRun)})
			return
		}
	}
	// Validate the declared batch before compiling or allocating anything: a
	// lying batch header is an input error, never an allocation.
	batch, batched := 1, false
	if q.Batch != nil {
		batched = true
		batch = *q.Batch
		if batch <= 0 {
			s.writeError(w, &distal.Error{Kind: distal.KindInput, Op: "run",
				Err: fmt.Errorf("batch must be a positive instance count, got %d", batch)})
			return
		}
		if batch > s.cfg.MaxRunBatch {
			s.writeError(w, &distal.Error{Kind: distal.KindInput, Op: "run",
				Err: fmt.Errorf("batch of %d exceeds the limit of %d", batch, s.cfg.MaxRunBatch)})
			return
		}
	}

	ctx, cancel := s.deadlineFor(r.Context(), q.TimeoutMS)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.release()

	// Compile either request form into one plan: a statement's binds every
	// tensor, a list's its leaf inputs, and the binding allocates the rest.
	plan, err := s.sess.Compile(ctx, distal.Request{
		Stmt: q.Stmt, Shapes: q.Shapes, Formats: q.Formats, Schedule: q.Schedule, Stmts: q.Stmts,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	names, stages := plan.Inputs(), plan.StageMetas()
	for name := range q.Inputs {
		if !slices.Contains(names, name) {
			s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "run",
				Err: fmt.Errorf("inputs names %s, which is not a tensor the request binds (%s)", name, strings.Join(names, ", "))})
			return
		}
	}
	// Admit the run by the memory it materializes before allocating any of
	// it: every bound and allocated tensor of every instance, in bytes, must
	// fit the run body limit. A shape whose element count overflows is
	// refused here too, so no client shape ever reaches an allocation.
	budget, admitErr := s.cfg.MaxRunBody/8/int64(batch), error(nil)
	admit := func(shape []int) {
		n, err := tensor.Elems(shape)
		if err == nil && int64(n) > budget {
			err = fmt.Errorf("materializing %d instance(s) of the run needs more than the %d-byte limit", batch, s.cfg.MaxRunBody)
		}
		budget -= int64(n)
		if admitErr == nil {
			admitErr = err
		}
	}
	for _, name := range names {
		admit(plan.Shape(name))
	}
	for _, st := range stages {
		admit(plan.Shape(st.Output))
	}
	if admitErr != nil {
		s.writeError(w, &distal.Error{Kind: distal.KindInput, Op: "run", Err: admitErr})
		return
	}

	// Materialize every tensor of every instance, decoding wire frames in
	// instance-major order (instance 0's tensors in statement order, then
	// instance 1's, ...). Each frame decodes under the exact element count
	// the request declared for its tensor, so a lying frame header can never
	// allocate beyond the declared workload. A frame that decodes cleanly
	// but disagrees with the declared shape is fully consumed — the stream
	// stays in sync — so only its instance fails; a malformed or truncated
	// frame desynchronizes the stream and fails the whole request.
	_, dsp := obs.Start(ctx, "decode-frames")
	instBinds := make([][]*distal.Tensor, batch)
	instErrs := make([]error, batch)
	for i := 0; i < batch; i++ {
		binds := make([]*distal.Tensor, 0, len(names))
		for _, name := range names {
			shape := q.Shapes[name]
			var data *tensor.Dense
			if q.Inputs[name] == wire.FillWire {
				elems, _ := tensor.Elems(shape) // admitted above
				var err error
				data, err = wire.DecodeLimit(body, elems)
				if err != nil {
					at := fmt.Sprintf("decoding frame for %s", name)
					if batched {
						at = fmt.Sprintf("decoding frame for %s (instance %d)", name, i)
					}
					dsp.End()
					s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "run",
						Err: fmt.Errorf("%s: %w", at, err)})
					return
				}
				if !slices.Equal(data.Shape(), shape) {
					if instErrs[i] == nil {
						instErrs[i] = &distal.Error{Kind: distal.KindInput, Op: "run",
							Err: fmt.Errorf("frame for %s has shape %v, the request declares %v", name, data.Shape(), shape)}
					}
					continue // stay in sync: keep consuming this instance's frames
				}
				data.Rename(name)
			} else {
				data = tensor.New(name, shape...)
				if err := wire.ApplyFillInstance(data, q.Inputs[name], i); err != nil {
					dsp.End()
					s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "run", Err: err})
					return
				}
			}
			binds = append(binds, &distal.Tensor{Name: name, Shape: shape, Data: data})
		}
		if instErrs[i] == nil {
			instBinds[i] = binds
		}
	}
	if framed {
		// The body must end exactly at the last declared frame: trailing
		// bytes mean the client and server disagree about the frame set.
		var probe [1]byte
		if n, _ := io.ReadFull(body, probe[:]); n != 0 {
			dsp.End()
			s.writeError(w, &distal.Error{Kind: distal.KindInput, Op: "run",
				Err: errors.New("trailing data after the last declared wire frame")})
			return
		}
	}
	dsp.End()

	// Execute the surviving instances in one launch walk. When every
	// instance failed (which includes the single-instance path's only
	// instance), the first failure is the request's failure.
	var surviving [][]*distal.Tensor
	for i := 0; i < batch; i++ {
		if instErrs[i] == nil {
			surviving = append(surviving, instBinds[i])
		}
	}
	if len(surviving) == 0 {
		s.writeError(w, instErrs[0])
		return
	}
	ectx, esp := obs.Start(ctx, "execute")
	ctx = ectx
	esp.SetAttr("instances", strconv.Itoa(len(surviving)))
	t0 := time.Now()
	bb := plan.BindBatch(surviving...)
	results, err := bb.Run(ctx)
	esp.End()
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, cs := results[0], plan.Stats()
	s.phaseCompile.Observe(cs.CompileTime.Seconds())
	s.phaseExecute.Observe(time.Since(t0).Seconds())
	s.batchSize.Observe(float64(len(surviving)))
	s.bytesIntra.Add(float64(res.IntraBytes))
	s.bytesInter.Add(float64(res.InterBytes))

	stats := wire.RunStats{
		PlanKey:      plan.Key(),
		Cached:       cs.Cached,
		Output:       plan.Output(),
		TimeS:        res.Time,
		GFlops:       res.GFlopsPerSec(),
		Copies:       res.Copies,
		IntraBytes:   res.IntraBytes,
		InterBytes:   res.InterBytes,
		PeakMemBytes: res.PeakMemBytes,
		CompileMS:    float64(cs.CompileTime) / float64(time.Millisecond),
	}
	for _, st := range stages {
		stats.Stages = append(stats.Stages, wire.StageInfo(st))
	}
	stats.SetHeaders(w.Header())
	if batched {
		w.Header().Set(wire.HeaderBatch, strconv.Itoa(batch))
		tokens := make([]string, batch)
		messages := make([]string, batch)
		anyFailed := false
		for i := 0; i < batch; i++ {
			if instErrs[i] == nil {
				tokens[i] = wire.BatchStatusOK
				continue
			}
			anyFailed = true
			tokens[i] = distal.KindOf(instErrs[i]).String()
			messages[i] = instErrs[i].Error()
		}
		w.Header().Set(wire.HeaderBatchStatus, strings.Join(tokens, ","))
		if anyFailed {
			enc, err := json.Marshal(messages)
			if err == nil {
				w.Header().Set(wire.HeaderBatchErrors, string(enc))
			}
		}
	}
	w.Header().Set("Content-Type", wire.ContentTypeTensor)
	w.WriteHeader(http.StatusOK)
	// Stream the result frame by frame: Encode writes through a 64 KiB
	// scratch and the flushing writer pushes each chunk out immediately, so
	// the response is chunked transfer with no whole-result buffering. A
	// batched response concatenates the surviving instances' frames in
	// instance order.
	_, rsp := obs.Start(ctx, "stream-response")
	defer rsp.End()
	fw := &flushWriter{w: w}
	for i := range bb.Len() {
		if err := wire.Encode(fw, bb.Output(i).Data); err != nil {
			// The status line is gone; all we can do is drop the connection
			// so the client sees a truncated frame instead of a silent short
			// read.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
			return
		}
	}
}

func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// flushWriter flushes after every write so the encoder's chunks leave the
// server as they are produced.
type flushWriter struct {
	w http.ResponseWriter
}

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}
