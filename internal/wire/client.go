package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

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
	resp, stats, limit, err := c.post(ctx, req, []map[string]*tensor.Dense{data})
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
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
	resp, stats, limit, err := c.post(ctx, req, batch)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	out := &BatchOutcome{
		Outputs: make([]*tensor.Dense, n),
		Errs:    make([]error, n),
		Stats:   stats,
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
		out.Outputs[i] = t.Rename(stats.Output)
	}
	if err := expectEOF(resp.Body); err != nil {
		return nil, err
	}
	return out, nil
}

// post validates req, frames each instance's wire-marked inputs
// instance-major, and POSTs the body: the curl-friendly bare JSON when no
// input rides as a frame, otherwise the JSON section plus frames streamed
// through an io.Pipe, so large tensors are never buffered a second time.
// req.Batch, nil for a single run, declares how many instances insts holds.
// A 200 response comes back with its stats and the element limit of one
// output frame; the caller closes its body. Any other status is a
// *RunError.
func (c *Client) post(ctx context.Context, req RunRequest, insts []map[string]*tensor.Dense) (*http.Response, RunStats, int, error) {
	fail := func(err error) (*http.Response, RunStats, int, error) { return nil, RunStats{}, 0, err }
	order, shapes, err := frameOrder(req)
	if err != nil {
		return fail(err)
	}
	n, at := 1, func(int) string { return "" }
	if req.Batch != nil {
		n, at = *req.Batch, func(i int) string { return fmt.Sprintf("instance %d: ", i) }
		if len(order) == 0 && len(insts) > 0 {
			return fail(fmt.Errorf("wire: instance data given but no input is marked %q", FillWire))
		}
		if len(order) > 0 && len(insts) != n {
			return fail(fmt.Errorf("wire: %d instances declared but data for %d was given", n, len(insts)))
		}
	}
	var frames []*tensor.Dense
	for i, data := range insts {
		for name := range data {
			if req.Inputs[name] != FillWire {
				return fail(fmt.Errorf("wire: %sdata given for %s, whose inputs entry is %q, not %q", at(i), name, req.Inputs[name], FillWire))
			}
		}
		for _, name := range order {
			t, ok := data[name]
			if !ok {
				return fail(fmt.Errorf("wire: %sinput %s is marked %q but no data was given", at(i), name, FillWire))
			}
			frames = append(frames, t)
		}
	}
	envelope, err := json.Marshal(req)
	if err != nil {
		return fail(err)
	}

	body, contentType := io.Reader(bytes.NewReader(envelope)), "application/json"
	var pw *io.PipeWriter
	if len(frames) > 0 {
		var pr *io.PipeReader
		pr, pw = io.Pipe()
		body, contentType = pr, ContentTypeRun
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run", body)
	if err != nil {
		return fail(err)
	}
	httpReq.Header.Set("Content-Type", contentType)
	if pw != nil {
		// Started only once the request exists: the transport closes the
		// pipe's reader when it is done with the body, which ends this
		// writer on every path.
		go func() {
			err := WriteJSONSection(pw, envelope)
			if err == nil {
				err = EncodeFrames(pw, frames...)
			}
			pw.CloseWithError(err)
		}()
	}
	client := c.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return fail(decodeError(resp))
	}
	stats := StatsFromHeaders(resp.Header)
	limit := DefaultMaxElements
	if shape, ok := shapes[stats.Output]; ok {
		if elems, err := tensor.Elems(shape); err == nil {
			limit = elems
		}
	}
	return resp, stats, limit, nil
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

// frameOrder returns the names of req's wire-marked inputs in frame order —
// the order program.ParseRequest lists the tensors the request binds in —
// after validating every directive. The request parses exactly as the
// server parses it, so both ends agree on which tensors ride as frames. The
// returned shapes cover every tensor a response could stream (a list's
// computed tensors are inferred, not declared), for bounding the decode.
func frameOrder(req RunRequest) ([]string, map[string][]int, error) {
	p, err := program.ParseRequest(program.Statement{Stmt: req.Stmt, Formats: req.Formats, Schedule: req.Schedule}, req.Stmts, req.Shapes)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: %w", err)
	}
	names := p.Inputs()
	for name, fill := range req.Inputs {
		if !slices.Contains(names, name) {
			return nil, nil, fmt.Errorf("wire: inputs names %s, which is not a tensor the request binds (%s)", name, strings.Join(names, ", "))
		}
		if !ValidFill(fill) {
			return nil, nil, fmt.Errorf("wire: tensor %s: bad inputs directive %q", name, fill)
		}
	}
	var order []string
	for _, name := range names {
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
