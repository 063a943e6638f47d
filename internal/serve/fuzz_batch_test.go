package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"distal"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// fuzzBatchRequest is the fixed envelope the framing fuzzer rides on: a
// small, always-compilable workload whose two inputs arrive as wire frames.
// Keeping the JSON section valid focuses the fuzzer on what this PR added —
// the batch count and the instance-major frame stream.
func fuzzBatchRequest(batch int) wire.RunRequest {
	return wire.RunRequest{
		Stmt: "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{
			"A": {16, 16}, "B": {16, 16}, "C": {16, 16},
		},
		Inputs: map[string]string{"B": wire.FillWire, "C": wire.FillWire},
		Batch:  &batch,
	}
}

// fuzzBatchBody frames the fixed request with the given batch count and
// appends raw frame bytes verbatim.
func fuzzBatchBody(batch int, frames []byte) ([]byte, error) {
	req := fuzzBatchRequest(batch)
	envelope, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := wire.WriteJSONSection(&buf, envelope); err != nil {
		return nil, err
	}
	buf.Write(frames)
	return buf.Bytes(), nil
}

// goodFrameBytes returns n instances' worth of correctly shaped frames for
// the fuzz request, instance-major.
func goodFrameBytes(n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		b := tensor.New("B", 16, 16)
		b.FillRandom(int64(2*i + 1))
		c := tensor.New("C", 16, 16)
		c.FillRandom(int64(2*i + 2))
		if err := wire.EncodeFrames(&buf, b, c); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// fuzzBatchSeeds is the checked-in seed corpus: a healthy batch, truncated
// instance frames, a batch header contradicting the frame count in both
// directions, an out-of-range count, and garbage where a frame should start.
func fuzzBatchSeeds() [](struct {
	batch  int
	frames []byte
}) {
	garbage := append(goodFrameBytes(1), []byte("this is not a frame header....")...)
	return []struct {
		batch  int
		frames []byte
	}{
		{2, goodFrameBytes(2)},       // healthy batch
		{3, goodFrameBytes(2)},       // truncated instance frames
		{1, goodFrameBytes(2)},       // frames exceed the declared batch
		{0, goodFrameBytes(1)},       // lying batch header: zero
		{100, goodFrameBytes(1)},     // lying batch header: over the cap
		{-4, nil},                    // lying batch header: negative
		{2, garbage},                 // malformed second instance
		{2, goodFrameBytes(2)[:100]}, // truncated mid-frame
		{1, nil},                     // no frames at all
	}
}

// FuzzRunBatchFraming: no batched framing input — truncated instance frames,
// batch headers contradicting the frame stream, lying or out-of-range batch
// counts, garbage frames — may ever produce a 500 or an unbounded
// allocation. Client-caused failures map to 400/422; a healthy body answers
// 200.
func FuzzRunBatchFraming(f *testing.F) {
	for _, s := range fuzzBatchSeeds() {
		f.Add(s.batch, s.frames)
	}
	ts := httptest.NewServer(New(distal.NewSession(distal.NewMachine(distal.CPU, 2, 2)),
		Config{MaxRunBody: 1 << 20, MaxRunBatch: 8}))
	defer ts.Close()

	f.Fuzz(func(t *testing.T, batch int, frames []byte) {
		body, err := fuzzBatchBody(batch, frames)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/run", wire.ContentTypeRun, bytes.NewReader(body))
		if err != nil {
			// MaxBytesReader may kill the connection mid-upload; that is a
			// bounded refusal, not a server failure.
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for keep-alive
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("batch=%d, %d frame bytes: status %d, want 200, 400, or 422",
				batch, len(frames), resp.StatusCode)
		}
	})
}

// TestWriteBatchFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzRunBatchFraming. Run with
// DISTAL_WRITE_FUZZ_CORPUS=1 go test ./internal/serve -run TestWriteBatchFuzzCorpus
func TestWriteBatchFuzzCorpus(t *testing.T) {
	if os.Getenv("DISTAL_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set DISTAL_WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRunBatchFraming")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzBatchSeeds() {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "go test fuzz v1\nint(%d)\n[]byte(%s)\n", s.batch, strconv.Quote(string(s.frames)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
