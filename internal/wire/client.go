package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"distal/internal/ir"
	"distal/internal/program"
	"distal/internal/tensor"
)

// Client drives POST /v1/run against a distal-serve instance: it frames the
// request (streaming wire-marked inputs through an io.Pipe, so large
// tensors are never buffered a second time), and decodes the streamed
// response frame into a tensor.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// RunError is a non-2xx /v1/run response: the HTTP status plus the
// service's structured error body.
type RunError struct {
	Status  int
	Kind    string
	Message string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("wire: server returned %d (%s): %s", e.Status, e.Kind, e.Message)
}

// Run executes req on the server. data supplies the frames for every input
// whose Inputs directive is "wire" (other entries are rejected: fills are
// materialized server-side by design). The returned tensor is the streamed
// output, named and shaped by the response; stats carry the run's metrics.
func (c *Client) Run(ctx context.Context, req RunRequest, data map[string]*tensor.Dense) (*tensor.Dense, *RunStats, error) {
	if req.Batch != nil {
		return nil, nil, fmt.Errorf("wire: request declares batch %d: use RunBatch", *req.Batch)
	}
	order, shapes, err := wireOrder(req)
	if err != nil {
		return nil, nil, err
	}
	for name := range data {
		if req.Inputs[name] != FillWire {
			return nil, nil, fmt.Errorf("wire: data given for %s, whose inputs entry is %q, not %q", name, req.Inputs[name], FillWire)
		}
	}
	frames := make([]*tensor.Dense, len(order))
	for i, name := range order {
		t, ok := data[name]
		if !ok {
			return nil, nil, fmt.Errorf("wire: input %s is marked %q but no data was given", name, FillWire)
		}
		frames[i] = t
	}
	envelope, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}

	var body io.Reader
	contentType := ContentTypeRun
	if len(frames) == 0 {
		// All-fills requests take the curl-friendly bare-JSON form.
		body, contentType = bytes.NewReader(envelope), "application/json"
	} else {
		pr, pw := io.Pipe()
		body = pr
		go func() {
			err := WriteJSONSection(pw, envelope)
			if err == nil {
				err = EncodeFrames(pw, frames...)
			}
			pw.CloseWithError(err)
		}()
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run", body)
	if err != nil {
		return nil, nil, err
	}
	httpReq.Header.Set("Content-Type", contentType)
	client := c.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, decodeError(resp)
	}
	stats := StatsFromHeaders(resp.Header)
	limit := DefaultMaxElements
	if shape, ok := shapes[stats.Output]; ok {
		limit = 1
		for _, s := range shape {
			limit *= s
		}
	}
	out, err := DecodeLimit(resp.Body, limit)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: decoding response: %w", err)
	}
	if err := expectEOF(resp.Body); err != nil {
		return nil, nil, err
	}
	return out.Rename(stats.Output), &stats, nil
}

// InstanceError is one instance's failure inside a 200 batched response:
// the whole batch executed, but this instance was rejected (its frame's
// shape disagreed with the request, for example) without tearing down the
// others.
type InstanceError struct {
	Index   int
	Kind    string
	Message string
}

func (e *InstanceError) Error() string {
	return fmt.Sprintf("wire: batch instance %d failed (%s): %s", e.Index, e.Kind, e.Message)
}

// BatchOutcome is the result of one batched run: per-instance outputs and
// failures, index-aligned with the request's instances, plus the shared run
// stats (the simulated metrics of a batched run are those of a single
// instance — the accounting walk runs once).
type BatchOutcome struct {
	// Outputs holds instance i's streamed output tensor, nil when Errs[i]
	// is set.
	Outputs []*tensor.Dense
	// Errs holds instance i's *InstanceError, nil when it succeeded.
	Errs []error
	// Stats carries the run's metrics headers.
	Stats RunStats
}

// RunBatch executes req as a batched run over N problem instances. batch
// supplies each instance's wire-marked input frames, one map per instance
// in instance order; when req has no wire-marked inputs (all fills), batch
// may be nil and req.Batch must declare the instance count. Frames are
// streamed instance-major (instance 0's tensors in statement order, then
// instance 1's, ...). Whole-request failures (malformed request, all
// instances rejected, executor errors) return a non-nil error; per-instance
// rejections ride in the BatchOutcome with the surviving instances' outputs.
func (c *Client) RunBatch(ctx context.Context, req RunRequest, batch []map[string]*tensor.Dense) (*BatchOutcome, error) {
	n := len(batch)
	if req.Batch != nil {
		if n != 0 && *req.Batch != n {
			return nil, fmt.Errorf("wire: request declares batch %d but %d instances were given", *req.Batch, n)
		}
		n = *req.Batch
	}
	if n <= 0 {
		return nil, fmt.Errorf("wire: batched run needs at least one instance")
	}
	req.Batch = &n
	order, shapes, err := wireOrder(req)
	if err != nil {
		return nil, err
	}
	if len(order) == 0 && len(batch) > 0 {
		return nil, fmt.Errorf("wire: instance data given but no input is marked %q", FillWire)
	}
	var frames []*tensor.Dense
	if len(order) > 0 {
		if len(batch) != n {
			return nil, fmt.Errorf("wire: %d instances declared but data for %d was given", n, len(batch))
		}
		frames = make([]*tensor.Dense, 0, n*len(order))
		for i, data := range batch {
			for name := range data {
				if req.Inputs[name] != FillWire {
					return nil, fmt.Errorf("wire: instance %d: data given for %s, whose inputs entry is %q, not %q", i, name, req.Inputs[name], FillWire)
				}
			}
			for _, name := range order {
				t, ok := data[name]
				if !ok {
					return nil, fmt.Errorf("wire: instance %d: input %s is marked %q but no data was given", i, name, FillWire)
				}
				frames = append(frames, t)
			}
		}
	}
	envelope, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	var body io.Reader
	contentType := ContentTypeRun
	if len(frames) == 0 {
		body, contentType = bytes.NewReader(envelope), "application/json"
	} else {
		pr, pw := io.Pipe()
		body = pr
		go func() {
			err := WriteJSONSection(pw, envelope)
			if err == nil {
				err = EncodeFrames(pw, frames...)
			}
			pw.CloseWithError(err)
		}()
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run", body)
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", contentType)
	client := c.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}

	out := &BatchOutcome{
		Outputs: make([]*tensor.Dense, n),
		Errs:    make([]error, n),
		Stats:   StatsFromHeaders(resp.Header),
	}
	status := strings.Split(resp.Header.Get(HeaderBatchStatus), ",")
	if len(status) != n {
		return nil, fmt.Errorf("wire: response reports %d instance statuses, want %d", len(status), n)
	}
	var messages []string
	if raw := resp.Header.Get(HeaderBatchErrors); raw != "" {
		if err := json.Unmarshal([]byte(raw), &messages); err != nil || len(messages) != n {
			return nil, fmt.Errorf("wire: malformed %s header", HeaderBatchErrors)
		}
	}
	limit := DefaultMaxElements
	if shape, ok := shapes[out.Stats.Output]; ok {
		limit = 1
		for _, s := range shape {
			limit *= s
		}
	}
	for i, st := range status {
		if st != BatchStatusOK {
			msg := ""
			if messages != nil {
				msg = messages[i]
			}
			out.Errs[i] = &InstanceError{Index: i, Kind: st, Message: msg}
			continue
		}
		t, err := DecodeLimit(resp.Body, limit)
		if err != nil {
			return nil, fmt.Errorf("wire: decoding instance %d of the response: %w", i, err)
		}
		out.Outputs[i] = t.Rename(out.Stats.Output)
	}
	if err := expectEOF(resp.Body); err != nil {
		return nil, err
	}
	return out, nil
}

// expectEOF reads the response body to its end after the last frame: a
// body read to EOF lets net/http keep the connection for the next request,
// where an unread one closes it. The read is one byte: anything there is a
// trailing byte the protocol does not allow.
func expectEOF(body io.Reader) error {
	var probe [1]byte
	n, err := io.ReadFull(body, probe[:])
	switch {
	case n > 0:
		return fmt.Errorf("wire: trailing bytes after the last response frame")
	case err == io.EOF:
		return nil
	default:
		return fmt.Errorf("wire: reading the end of the response: %w", err)
	}
}

// wireOrder returns the names of req's wire-marked inputs in frame order —
// statement order for single-statement runs, the program's leaf first-use
// order for multi-statement runs — after validating every directive. The
// returned shapes cover every tensor a response could stream (multi-
// statement outputs are inferred, not declared), for bounding the decode.
func wireOrder(req RunRequest) ([]string, map[string][]int, error) {
	if len(req.Stmts) > 0 {
		return programOrder(req)
	}
	stmt, err := ir.Parse(req.Stmt)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: %w", err)
	}
	named := map[string]bool{}
	for _, name := range stmt.TensorNames() {
		named[name] = true
	}
	for name, fill := range req.Inputs {
		if !named[name] {
			return nil, nil, fmt.Errorf("wire: inputs names %s, which is not a tensor of %q", name, req.Stmt)
		}
		if !ValidFill(fill) {
			return nil, nil, fmt.Errorf("wire: tensor %s: bad inputs directive %q", name, fill)
		}
	}
	var order []string
	for _, name := range stmt.TensorNames() {
		if req.Inputs[name] == FillWire {
			order = append(order, name)
		}
	}
	return order, req.Shapes, nil
}

// programOrder is wireOrder for a multi-statement run: it parses the
// program exactly as the server will, so both ends agree on which tensors
// ride as frames and in what order. Only leaf inputs may carry Inputs
// directives — intermediates and outputs are always server-allocated.
func programOrder(req RunRequest) ([]string, map[string][]int, error) {
	if req.Stmt != "" {
		return nil, nil, fmt.Errorf("wire: request sets both stmt and stmts; a multi-statement run puts every statement in stmts")
	}
	specs := make([]program.Statement, len(req.Stmts))
	for i, st := range req.Stmts {
		specs[i] = program.Statement{Stmt: st.Stmt, Formats: st.Formats, Schedule: st.Schedule}
	}
	p, err := program.Parse(specs, req.Shapes)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: %w", err)
	}
	leaf := map[string]bool{}
	for _, name := range p.Inputs() {
		leaf[name] = true
	}
	for name, fill := range req.Inputs {
		if !leaf[name] {
			return nil, nil, fmt.Errorf("wire: inputs names %s, which is not a leaf input of the program (computed tensors are server-allocated)", name)
		}
		if !ValidFill(fill) {
			return nil, nil, fmt.Errorf("wire: tensor %s: bad inputs directive %q", name, fill)
		}
	}
	var order []string
	for _, name := range p.Inputs() {
		if req.Inputs[name] == FillWire {
			order = append(order, name)
		}
	}
	return order, p.Shapes, nil
}

func decodeError(resp *http.Response) error {
	var body struct {
		Error struct {
			Kind    string `json:"kind"`
			Message string `json:"message"`
		} `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(raw, &body); err != nil || body.Error.Kind == "" {
		return &RunError{Status: resp.StatusCode, Kind: "unknown", Message: string(raw)}
	}
	return &RunError{Status: resp.StatusCode, Kind: body.Error.Kind, Message: body.Error.Message}
}
