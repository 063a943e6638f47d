package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"distal/internal/tensor"
)

// marked returns a 2x2 tensor whose every element is v, so a captured frame
// names the tensor (and instance) it came from.
func marked(v float64) *tensor.Dense {
	t := tensor.New("", 2, 2)
	t.Fill(v)
	return t
}

func square(names ...string) map[string][]int {
	shapes := map[string][]int{}
	for _, n := range names {
		shapes[n] = []int{2, 2}
	}
	return shapes
}

const (
	gemm   = "A(i,j) = C(i,k) * B(k,j)" // statement order C before B
	first  = "D(i,j) = Y(i,k) * X(k,j)"
	second = "E(i,j) = D(i,k) * W(k,j)" // leaf first-use order Y, X, W
)

// TestClientRejectsLocally: malformed requests fail in the client, before
// any byte reaches the server.
func TestClientRejectsLocally(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("request reached the server")
		w.WriteHeader(http.StatusTeapot)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	two, three := 2, 3
	stmtReq := func(inputs map[string]string) RunRequest {
		return RunRequest{Stmt: gemm, Shapes: square("A", "B", "C"), Inputs: inputs}
	}
	progReq := func(inputs map[string]string) RunRequest {
		return RunRequest{Stmts: []StmtSpec{{Stmt: first}, {Stmt: second}}, Shapes: square("X", "Y", "W"), Inputs: inputs}
	}
	wireBC := map[string]string{"B": FillWire, "C": FillWire}
	dataBC := map[string]*tensor.Dense{"B": marked(1), "C": marked(2)}
	cases := []struct {
		name  string
		batch bool // RunBatch instead of Run
		req   RunRequest
		data  []map[string]*tensor.Dense
		want  string
	}{
		{name: "batch-on-run", req: func() RunRequest { r := stmtReq(nil); r.Batch = &two; return r }(),
			want: "use RunBatch"},
		{name: "data-for-fill", req: stmtReq(map[string]string{"B": "ones"}),
			data: []map[string]*tensor.Dense{{"B": marked(1)}}, want: "data given for B"},
		{name: "data-for-fill-batch", batch: true, req: stmtReq(map[string]string{"B": "ones", "C": FillWire}),
			data: []map[string]*tensor.Dense{{"B": marked(1), "C": marked(2)}}, want: "data given for B"},
		{name: "wire-without-data", req: stmtReq(wireBC),
			data: []map[string]*tensor.Dense{{"B": marked(1)}}, want: "input C is marked \"wire\" but no data was given"},
		{name: "wire-without-data-batch", batch: true, req: stmtReq(wireBC),
			data: []map[string]*tensor.Dense{dataBC, {"B": marked(1)}}, want: "input C is marked \"wire\" but no data was given"},
		{name: "declared-batch-mismatch", batch: true,
			req:  func() RunRequest { r := stmtReq(wireBC); r.Batch = &three; return r }(),
			data: []map[string]*tensor.Dense{dataBC, dataBC}, want: "declares batch 3 but 2 instances were given"},
		{name: "declared-batch-no-data", batch: true,
			req:  func() RunRequest { r := stmtReq(wireBC); r.Batch = &two; return r }(),
			want: "2 instances declared but data for 0 was given"},
		{name: "batch-without-instances", batch: true, req: stmtReq(nil), want: "at least one instance"},
		{name: "instance-data-without-wire", batch: true, req: stmtReq(map[string]string{"B": "ones"}),
			data: []map[string]*tensor.Dense{{}}, want: "no input is marked \"wire\""},
		{name: "unknown-input-stmt", req: stmtReq(map[string]string{"Z": "ones"}),
			want: "inputs names Z, which is not a tensor the request binds (A, C, B)"},
		{name: "unknown-input-program", req: progReq(map[string]string{"D": "ones"}),
			want: "inputs names D, which is not a tensor the request binds (Y, X, W)"},
		{name: "bad-directive", req: stmtReq(map[string]string{"B": "twos"}),
			want: "bad inputs directive"},
		{name: "bad-directive-program", req: progReq(map[string]string{"X": "twos"}),
			want: "bad inputs directive"},
		{name: "stmt-and-stmts", req: func() RunRequest { r := progReq(nil); r.Stmt = gemm; return r }(),
			want: "the top-level stmt, formats and schedule must be empty"},
		{name: "bad-statement", req: RunRequest{Stmt: "A(i,j) = ", Shapes: square("A")},
			want: "wire:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.batch {
				_, err = c.RunBatch(context.Background(), tc.req, tc.data)
			} else {
				var data map[string]*tensor.Dense
				if len(tc.data) > 0 {
					data = tc.data[0]
				}
				_, _, err = c.Run(context.Background(), tc.req, data)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

// sent is what a capturing server saw of one request.
type sent struct {
	contentType string
	envelope    map[string]json.RawMessage
	frames      []float64 // each frame's first element
}

// captureServer records every /v1/run request and answers it with one 2x2
// output frame per instance (named E, the program's output, or A).
func captureServer(t *testing.T) (*httptest.Server, func() sent) {
	var (
		mu   sync.Mutex
		last sent
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var got sent
		got.contentType = r.Header.Get("Content-Type")
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading body: %v", err)
			return
		}
		body := bytes.NewReader(raw)
		section := raw
		if got.contentType == ContentTypeRun {
			if section, err = ReadJSONSection(body); err != nil {
				t.Errorf("JSON section: %v", err)
				return
			}
		} else {
			body.Reset(nil)
		}
		if err := json.Unmarshal(section, &got.envelope); err != nil {
			t.Errorf("envelope: %v", err)
			return
		}
		for body.Len() > 0 {
			f, err := Decode(body)
			if err != nil {
				t.Errorf("frame %d: %v", len(got.frames), err)
				return
			}
			got.frames = append(got.frames, f.Data()[0])
		}
		mu.Lock()
		last = got
		mu.Unlock()

		n, batched := 1, false
		if b, ok := got.envelope["batch"]; ok {
			batched = true
			if err := json.Unmarshal(b, &n); err != nil {
				t.Errorf("batch: %v", err)
				return
			}
		}
		out := "A"
		if _, ok := got.envelope["stmts"]; ok {
			out = "E"
		}
		stats := RunStats{PlanKey: "k", Output: out}
		stats.SetHeaders(w.Header())
		if batched {
			w.Header().Set(HeaderBatch, strconv.Itoa(n))
			w.Header().Set(HeaderBatchStatus, strings.TrimSuffix(strings.Repeat(BatchStatusOK+",", n), ","))
		}
		w.Header().Set("Content-Type", ContentTypeTensor)
		for i := range n {
			if err := Encode(w, marked(float64(100+i))); err != nil {
				t.Errorf("encode: %v", err)
			}
		}
	}))
	return ts, func() sent {
		mu.Lock()
		defer mu.Unlock()
		return last
	}
}

// TestClientSends pins what Run and RunBatch put on the wire: bare JSON when
// no input rides as a frame, the framed form otherwise; no "batch" field on
// Run; frames in statement order (or the program's leaf first-use order),
// instance-major across a batch.
func TestClientSends(t *testing.T) {
	ts, last := captureServer(t)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	three := 3
	inst := func(base float64, names ...string) map[string]*tensor.Dense {
		m := map[string]*tensor.Dense{}
		for i, n := range names {
			m[n] = marked(base + float64(i))
		}
		return m
	}
	cases := []struct {
		name        string
		req         RunRequest
		data        []map[string]*tensor.Dense // nil data + batch: RunBatch with req.Batch
		batch       bool
		contentType string
		wantBatch   string // "" means the envelope has no "batch" field
		frames      []float64
	}{
		{name: "run-fills", req: RunRequest{Stmt: gemm, Shapes: square("A", "B", "C"),
			Inputs: map[string]string{"B": "rand:1", "C": "ones"}},
			contentType: "application/json"},
		{name: "run-stmt-order", req: RunRequest{Stmt: gemm, Shapes: square("A", "B", "C"),
			Inputs: map[string]string{"B": FillWire, "C": FillWire}},
			// B holds 1, C holds 2: statement order sends C first.
			data:        []map[string]*tensor.Dense{inst(1, "B", "C")},
			contentType: ContentTypeRun, frames: []float64{2, 1}},
		{name: "run-program-order", req: RunRequest{Stmts: []StmtSpec{{Stmt: first}, {Stmt: second}},
			Shapes: square("X", "Y", "W"), Inputs: map[string]string{"W": FillWire, "X": FillWire, "Y": FillWire}},
			// W=1, X=2, Y=3: leaf first-use order is Y, X, W.
			data:        []map[string]*tensor.Dense{inst(1, "W", "X", "Y")},
			contentType: ContentTypeRun, frames: []float64{3, 2, 1}},
		{name: "run-program-fills", req: RunRequest{Stmts: []StmtSpec{{Stmt: first}, {Stmt: second}},
			Shapes: square("X", "Y", "W"), Inputs: map[string]string{"X": "ones", "Y": FillWire}},
			data:        []map[string]*tensor.Dense{inst(7, "Y")},
			contentType: ContentTypeRun, frames: []float64{7}},
		{name: "batch-fills", batch: true, req: RunRequest{Stmt: gemm, Shapes: square("A", "B", "C"),
			Inputs: map[string]string{"B": "rand:1"}, Batch: &three},
			contentType: "application/json", wantBatch: "3"},
		{name: "batch-stmt-instance-major", batch: true, req: RunRequest{Stmt: gemm, Shapes: square("A", "B", "C"),
			Inputs: map[string]string{"B": FillWire, "C": FillWire}},
			data:        []map[string]*tensor.Dense{inst(1, "B", "C"), inst(11, "B", "C")},
			contentType: ContentTypeRun, wantBatch: "2", frames: []float64{2, 1, 12, 11}},
		{name: "batch-program-instance-major", batch: true, req: RunRequest{Stmts: []StmtSpec{{Stmt: first}, {Stmt: second}},
			Shapes: square("X", "Y", "W"), Inputs: map[string]string{"W": FillWire, "X": "rand:4", "Y": FillWire}},
			data:        []map[string]*tensor.Dense{inst(1, "W", "Y"), inst(11, "W", "Y"), inst(21, "W", "Y")},
			contentType: ContentTypeRun, wantBatch: "3", frames: []float64{2, 1, 12, 11, 22, 21}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantOut := "A"
			if len(tc.req.Stmts) > 0 {
				wantOut = "E"
			}
			if tc.batch {
				outcome, err := c.RunBatch(ctx, tc.req, tc.data)
				if err != nil {
					t.Fatal(err)
				}
				for i, o := range outcome.Outputs {
					if outcome.Errs[i] != nil || o == nil || o.Name() != wantOut || o.Data()[0] != float64(100+i) {
						t.Fatalf("instance %d: output %v, err %v", i, o, outcome.Errs[i])
					}
				}
			} else {
				var data map[string]*tensor.Dense
				if len(tc.data) > 0 {
					data = tc.data[0]
				}
				out, stats, err := c.Run(ctx, tc.req, data)
				if err != nil {
					t.Fatal(err)
				}
				if out.Name() != wantOut || stats.Output != wantOut || !slices.Equal(out.Shape(), []int{2, 2}) || out.Data()[0] != 100 {
					t.Fatalf("output %s %v (stats output %q)", out.Name(), out.Shape(), stats.Output)
				}
			}
			got := last()
			if got.contentType != tc.contentType {
				t.Errorf("Content-Type = %q, want %q", got.contentType, tc.contentType)
			}
			b, ok := got.envelope["batch"]
			if tc.wantBatch == "" && ok {
				t.Errorf("envelope carries batch %s, want none", b)
			}
			if tc.wantBatch != "" && string(b) != tc.wantBatch {
				t.Errorf("envelope batch = %q, want %s", b, tc.wantBatch)
			}
			if !slices.Equal(got.frames, tc.frames) {
				t.Errorf("frames = %v, want %v", got.frames, tc.frames)
			}
		})
	}
}

// TestClientRunError: a non-2xx answer comes back as a *RunError carrying
// the status and the service's error kind and message.
func TestClientRunError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		io.WriteString(w, `{"error":{"kind":"input","message":"no"}}`) //nolint:errcheck
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	req := RunRequest{Stmt: gemm, Shapes: square("A", "B", "C")}
	_, _, err := c.Run(context.Background(), req, nil)
	one := 1
	req.Batch = &one
	_, berr := c.RunBatch(context.Background(), req, nil)
	for _, err := range []error{err, berr} {
		re, ok := err.(*RunError)
		if !ok || re.Status != http.StatusUnprocessableEntity || re.Kind != "input" || re.Message != "no" {
			t.Fatalf("err = %#v, want a 422 input RunError", err)
		}
	}
}
