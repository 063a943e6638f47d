package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"distal/internal/program"
	"distal/internal/tensor"
)

// The POST /v1/run protocol. A run request is a data-free distal.Request
// plus the data for every tensor of the statement, each either carried as a
// wire frame or filled server-side:
//
//	Content-Type: application/x-distal-run
//	body:  uint32 LE JSON length | RunRequest JSON | tensor frames
//
// Frames follow in statement order (the order ir's TensorNames yields: LHS
// first, then RHS tensors left to right, duplicates dropped), restricted to
// the tensors whose Inputs entry is "wire". Requests whose inputs are all
// fills may instead POST the bare RunRequest as Content-Type
// application/json — the curl-friendly form.
//
// The response streams the computed output tensor as one frame
// (Content-Type application/x-distal-tensor, chunked), with the execution's
// metrics riding in Distal-* headers. Failures are JSON error bodies with
// the PR 4 taxonomy's status mapping.
const (
	// ContentTypeRun marks a framed run request body.
	ContentTypeRun = "application/x-distal-run"
	// ContentTypeTensor marks a response body holding one tensor frame.
	ContentTypeTensor = "application/x-distal-tensor"
	// MaxJSONSection bounds the JSON prefix of a framed body.
	MaxJSONSection = 4 << 20
)

// Response headers carrying the run's metrics alongside the binary body.
const (
	HeaderPlanKey   = "Distal-Plan-Key"
	HeaderCached    = "Distal-Cached"
	HeaderOutput    = "Distal-Output"
	HeaderTimeS     = "Distal-Time-S"
	HeaderGFlops    = "Distal-Gflops"
	HeaderCopies    = "Distal-Copies"
	HeaderIntraB    = "Distal-Intra-Bytes"
	HeaderInterB    = "Distal-Inter-Bytes"
	HeaderPeakMemB  = "Distal-Peak-Mem-Bytes"
	HeaderCompileMS = "Distal-Compile-Ms"
	// HeaderRequestID carries the request id: generated server-side per
	// request, echoed back when the client supplies one of 1 to 64 bytes of
	// [A-Za-z0-9._-], and the key of the server's GET /v1/trace/{id} export.
	HeaderRequestID = "Distal-Request-Id"
	// HeaderStages carries a JSON array of StageInfo on multi-statement run
	// responses: one row per execution stage, repartitions included.
	HeaderStages = "Distal-Stages"
)

// StageInfo is one execution stage of a multi-statement run as reported in
// the HeaderStages response header: static per-stage facts (wall-clock
// per-stage timings live in the request's trace export instead).
type StageInfo struct {
	Output   string `json:"output"`
	PlanKey  string `json:"plan_key"`
	Cached   bool   `json:"cached"`
	Repart   bool   `json:"repart,omitempty"`
	Launches int    `json:"launches"`
	Points   int    `json:"points"`
}

// Batched-run response headers. A batched run (RunRequest.Batch set)
// answers 200 as long as at least one instance executed: HeaderBatch
// carries the declared instance count, HeaderBatchStatus one comma-
// separated token per instance ("ok" or the failing error kind, e.g.
// "input"), and — only when some instance failed — HeaderBatchErrors a
// JSON string array with one message per instance ("" for survivors). The
// body concatenates the output frames of the surviving instances in
// instance order; failed instances contribute no frame.
const (
	HeaderBatch       = "Distal-Batch"
	HeaderBatchStatus = "Distal-Batch-Status"
	HeaderBatchErrors = "Distal-Batch-Errors"
)

// BatchStatusOK is the HeaderBatchStatus token of a surviving instance.
const BatchStatusOK = "ok"

// FillWire marks an input that arrives as a wire frame instead of a fill.
const FillWire = "wire"

// RunRequest is the JSON envelope of one run: the workload named exactly as
// in distal.Request, plus one directive per tensor saying where its data
// comes from. Tensors without an Inputs entry default to "zero" (outputs
// usually start zeroed anyway).
type RunRequest struct {
	Stmt     string            `json:"stmt"`
	Shapes   map[string][]int  `json:"shapes"`
	Formats  map[string]string `json:"formats,omitempty"`
	Schedule string            `json:"schedule,omitempty"`
	// Stmts is the multi-statement form: a program whose statements feed
	// intermediates to one another, executed as a plan DAG with the
	// intermediates kept distributed between stages. Mutually exclusive
	// with Stmt/Formats/Schedule; Shapes declares leaf inputs only, and
	// only leaf inputs may carry Inputs directives — wire frames ride in
	// the program's leaf first-use order (program.Program Inputs), and the
	// response streams the last statement's output.
	Stmts []StmtSpec `json:"stmts,omitempty"`
	// Inputs maps tensor name -> "wire" | "zero" | "ones" | "rand:<seed>".
	// "wire" tensors ride as frames after the JSON section, in statement
	// order; fills are materialized server-side so a client can exercise a
	// plan without shipping the data.
	Inputs map[string]string `json:"inputs,omitempty"`
	// Batch executes N independent problem instances through one cached
	// plan in a single walk. Absent (nil) means the legacy single-instance
	// protocol. When set, the body's frames carry the instances
	// back-to-back in instance-major order — instance 0's wire-marked
	// tensors in statement order, then instance 1's, and so on — and fills
	// materialize per instance ("rand:<seed>" becomes seed+i for instance
	// i, see ApplyFillInstance). The response streams one output frame per
	// surviving instance, concatenated in instance order, with per-instance
	// failures reported in the batch headers. Zero, negative, or
	// over-the-server-cap values are rejected as input errors (422).
	Batch *int `json:"batch,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// StmtSpec is one statement of a multi-statement run: the index notation
// text plus that statement's own format annotations and schedule (empty
// schedule means the server auto-schedules the stage).
type StmtSpec = program.Statement

// ApplyFill materializes a fill directive into t: "zero", "ones", or
// "rand:<seed>" (the deterministic tensor.FillRandom stream, so client and
// server can reproduce each other's fills bit-identically).
func ApplyFill(t *tensor.Dense, fill string) error {
	switch {
	case fill == "" || fill == "zero":
		t.Zero()
	case fill == "ones":
		t.Fill(1)
	case strings.HasPrefix(fill, "rand:"):
		seed, err := strconv.ParseInt(fill[len("rand:"):], 10, 64)
		if err != nil {
			return fmt.Errorf("bad fill %q: rand wants an integer seed", fill)
		}
		t.FillRandom(seed)
	default:
		return fmt.Errorf("bad fill %q (want %q, \"zero\", \"ones\", or \"rand:<seed>\")", fill, FillWire)
	}
	return nil
}

// ApplyFillInstance materializes a fill directive for one instance of a
// batched run: "zero" and "ones" are identical across instances, while
// "rand:<seed>" draws instance inst's data from seed+inst — so a batch of
// rand-filled instances exercises N distinct data sets, and both ends of
// the wire can reproduce every instance bit-identically. Instance 0 equals
// ApplyFill.
func ApplyFillInstance(t *tensor.Dense, fill string, inst int) error {
	if strings.HasPrefix(fill, "rand:") {
		seed, err := strconv.ParseInt(fill[len("rand:"):], 10, 64)
		if err != nil {
			return fmt.Errorf("bad fill %q: rand wants an integer seed", fill)
		}
		t.FillRandom(seed + int64(inst))
		return nil
	}
	return ApplyFill(t, fill)
}

// ValidFill reports whether fill is a well-formed directive ("wire"
// included).
func ValidFill(fill string) bool {
	if fill == FillWire {
		return true
	}
	probe := tensor.New("", 0)
	return ApplyFill(probe, fill) == nil
}

// WriteJSONSection writes the length-prefixed JSON section of a framed run
// body.
func WriteJSONSection(w io.Writer, body []byte) error {
	if len(body) > MaxJSONSection {
		return formatErrf("JSON section of %d bytes exceeds the limit of %d", len(body), MaxJSONSection)
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(body)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadJSONSection reads the length-prefixed JSON section, leaving r
// positioned at the first tensor frame.
func ReadJSONSection(r io.Reader) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, formatErrf("truncated JSON section length: %v", err)
	}
	size := binary.LittleEndian.Uint32(n[:])
	if size > MaxJSONSection {
		return nil, formatErrf("JSON section of %d bytes exceeds the limit of %d", size, MaxJSONSection)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, formatErrf("truncated JSON section: %v", err)
	}
	return body, nil
}

// RunStats is the metric set a run response carries in Distal-* headers.
type RunStats struct {
	PlanKey      string
	Cached       bool
	Output       string
	TimeS        float64
	GFlops       float64
	Copies       int64
	IntraBytes   int64
	InterBytes   int64
	PeakMemBytes int64
	CompileMS    float64
	// RequestID is the server's request id (HeaderRequestID); the serve
	// middleware owns the header, so SetHeaders writes it only when set.
	RequestID string
	// Stages carries the per-stage rows of a multi-statement run; empty on
	// single-statement runs.
	Stages []StageInfo
}

// SetHeaders writes the stats onto an HTTP header block.
func (s *RunStats) SetHeaders(h http.Header) {
	h.Set(HeaderPlanKey, s.PlanKey)
	h.Set(HeaderCached, strconv.FormatBool(s.Cached))
	h.Set(HeaderOutput, s.Output)
	h.Set(HeaderTimeS, strconv.FormatFloat(s.TimeS, 'g', -1, 64))
	h.Set(HeaderGFlops, strconv.FormatFloat(s.GFlops, 'g', -1, 64))
	h.Set(HeaderCopies, strconv.FormatInt(s.Copies, 10))
	h.Set(HeaderIntraB, strconv.FormatInt(s.IntraBytes, 10))
	h.Set(HeaderInterB, strconv.FormatInt(s.InterBytes, 10))
	h.Set(HeaderPeakMemB, strconv.FormatInt(s.PeakMemBytes, 10))
	h.Set(HeaderCompileMS, strconv.FormatFloat(s.CompileMS, 'g', -1, 64))
	if s.RequestID != "" {
		h.Set(HeaderRequestID, s.RequestID)
	}
	if len(s.Stages) > 0 {
		if enc, err := json.Marshal(s.Stages); err == nil {
			h.Set(HeaderStages, string(enc))
		}
	}
}

// StatsFromHeaders parses the stats a response carried (absent or malformed
// numeric headers parse as zero: stats are informational, not load-bearing).
func StatsFromHeaders(h http.Header) RunStats {
	f := func(name string) float64 {
		v, _ := strconv.ParseFloat(h.Get(name), 64)
		return v
	}
	i := func(name string) int64 {
		v, _ := strconv.ParseInt(h.Get(name), 10, 64)
		return v
	}
	st := RunStats{
		PlanKey:      h.Get(HeaderPlanKey),
		Cached:       h.Get(HeaderCached) == "true",
		Output:       h.Get(HeaderOutput),
		TimeS:        f(HeaderTimeS),
		GFlops:       f(HeaderGFlops),
		Copies:       i(HeaderCopies),
		IntraBytes:   i(HeaderIntraB),
		InterBytes:   i(HeaderInterB),
		PeakMemBytes: i(HeaderPeakMemB),
		CompileMS:    f(HeaderCompileMS),
		RequestID:    h.Get(HeaderRequestID),
	}
	if raw := h.Get(HeaderStages); raw != "" {
		_ = json.Unmarshal([]byte(raw), &st.Stages) // informational, like the rest
	}
	return st
}
