package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"distal/internal/tensor"
)

// bitsEqual compares two tensors bit for bit (NaN payloads and signed
// zeros included), which EqualWithin cannot.
func bitsEqual(a, b *tensor.Dense) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	as, bs := a.Shape(), b.Shape()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestRoundTripBitIdentical(t *testing.T) {
	cases := []*tensor.Dense{
		tensor.New("scalar"), // rank 0
		tensor.New("empty", 0),
		tensor.New("row", 17),
		tensor.New("mat", 5, 7),
		tensor.New("cube", 3, 4, 5),
		tensor.New("big", 257, 129), // crosses several 64 KiB chunks? (257*129*8 = 265 KB)
	}
	for i, c := range cases {
		c.FillRandom(int64(i + 1))
	}
	// Special values must survive exactly.
	sp := tensor.New("special", 6)
	d := sp.Data()
	d[0] = math.NaN()
	d[1] = math.Inf(1)
	d[2] = math.Inf(-1)
	d[3] = math.Copysign(0, -1)
	d[4] = math.SmallestNonzeroFloat64
	d[5] = math.MaxFloat64
	cases = append(cases, sp)

	for _, c := range cases {
		var buf bytes.Buffer
		if err := Encode(&buf, c); err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		if got, want := int64(buf.Len()), EncodedSize(c); got != want {
			t.Fatalf("%s: encoded %d bytes, EncodedSize says %d", c.Name(), got, want)
		}
		back, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name(), err)
		}
		if !bitsEqual(c, back) {
			t.Fatalf("%s: round trip is not bit-identical", c.Name())
		}
	}
}

func TestFramesConcatenate(t *testing.T) {
	a := tensor.New("a", 4, 4)
	a.FillRandom(1)
	b := tensor.New("b", 2, 8, 2)
	b.FillRandom(2)
	var buf bytes.Buffer
	if err := EncodeFrames(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	for _, want := range []*tensor.Dense{a, b} {
		got, err := Decode(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(want, got) {
			t.Fatalf("frame %s did not round-trip", want.Name())
		}
	}
	if _, err := Decode(r); err == nil {
		t.Fatal("decode past the last frame succeeded")
	}
}

func TestDecodeRejects(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		tt := tensor.New("t", 3, 3)
		tt.FillRandom(9)
		if err := Encode(&buf, tt); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(valid()) }

	cases := map[string][]byte{
		"empty":         {},
		"short header":  valid()[:5],
		"bad magic":     mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":   mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"bad dtype":     mutate(func(b []byte) []byte { b[5] = 7; return b }),
		"huge rank":     mutate(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[6:8], MaxRank+1); return b }),
		"truncated dim": valid()[:headerSize+4],
		"truncated payload": mutate(func(b []byte) []byte {
			return b[:len(b)-8]
		}),
		"huge dim": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[headerSize:], math.MaxUint64/2)
			return b
		}),
	}
	for name, raw := range cases {
		if _, err := Decode(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decode succeeded on malformed input", name)
		} else if _, ok := err.(*FormatError); !ok {
			t.Errorf("%s: error %v is not a *FormatError", name, err)
		}
	}
}

func TestDecodeLimit(t *testing.T) {
	tt := tensor.New("t", 8, 8)
	tt.FillRandom(3)
	var buf bytes.Buffer
	if err := Encode(&buf, tt); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLimit(bytes.NewReader(buf.Bytes()), 64); err != nil {
		t.Fatalf("exact limit rejected: %v", err)
	}
	if _, err := DecodeLimit(bytes.NewReader(buf.Bytes()), 63); err == nil {
		t.Fatal("payload over the limit was accepted")
	} else if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("limit error does not say so: %v", err)
	}
	// A header declaring a huge payload over a tiny body must fail on the
	// limit check, before any payload-sized allocation.
	var hdr bytes.Buffer
	hdr.Write([]byte{'D', 'T', 'W', 'F', Version, DTypeFloat64, 2, 0})
	var dim [8]byte
	binary.LittleEndian.PutUint64(dim[:], 1<<20)
	hdr.Write(dim[:])
	hdr.Write(dim[:])
	if _, err := DecodeLimit(bytes.NewReader(hdr.Bytes()), 1<<10); err == nil {
		t.Fatal("oversized declaration was accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.dt")
	tt := tensor.New("orig", 6, 5)
	tt.FillRandom(11)
	if err := WriteFile(path, tt); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, "renamed")
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "renamed" {
		t.Fatalf("ReadFile name = %q", back.Name())
	}
	if !bitsEqual(tt, back) {
		t.Fatal("file round trip is not bit-identical")
	}
}

func TestJSONSectionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"stmt":"A(i,j) = B(i,k) * C(k,j)"}`)
	if err := WriteJSONSection(&buf, payload); err != nil {
		t.Fatal(err)
	}
	rest := tensor.New("t", 2, 2)
	if err := Encode(&buf, rest); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	got, err := ReadJSONSection(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("JSON section = %q", got)
	}
	if _, err := Decode(r); err != nil {
		t.Fatalf("frame after JSON section: %v", err)
	}

	if _, err := ReadJSONSection(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("truncated section length accepted")
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], MaxJSONSection+1)
	if _, err := ReadJSONSection(bytes.NewReader(huge[:])); err == nil {
		t.Fatal("oversized section accepted")
	}
}

func TestApplyFill(t *testing.T) {
	tt := tensor.New("t", 4)
	if err := ApplyFill(tt, "ones"); err != nil {
		t.Fatal(err)
	}
	if tt.Sum() != 4 {
		t.Fatalf("ones sum = %v", tt.Sum())
	}
	if err := ApplyFill(tt, "zero"); err != nil || tt.Sum() != 0 {
		t.Fatalf("zero fill: %v, sum %v", err, tt.Sum())
	}
	if err := ApplyFill(tt, "rand:7"); err != nil {
		t.Fatal(err)
	}
	want := tensor.New("w", 4)
	want.FillRandom(7)
	if !bitsEqual(tt, want) {
		t.Fatal("rand fill does not match FillRandom")
	}
	for _, bad := range []string{"random", "rand:", "rand:x", "wirex"} {
		if err := ApplyFill(tensor.New("t", 1), bad); err == nil {
			t.Errorf("fill %q accepted", bad)
		}
	}
	if !ValidFill(FillWire) || !ValidFill("zero") || ValidFill("nope") {
		t.Fatal("ValidFill misclassifies")
	}
}

// TestEncodeStreams pins that Encode writes through a bounded scratch: the
// writer sees many mid-size writes, never one payload-sized write.
func TestEncodeStreams(t *testing.T) {
	tt := tensor.New("t", 1<<10, 1<<7) // 1 MiB payload
	tt.FillRandom(1)
	w := &maxWriteRecorder{}
	if err := Encode(w, tt); err != nil {
		t.Fatal(err)
	}
	if w.max > chunkBytes {
		t.Fatalf("largest single write was %d bytes; the payload is being buffered (chunk is %d)", w.max, chunkBytes)
	}
}

// TestCodecAllocations pins what a frame costs the heap: Encode nothing (its
// scratch is pooled, its header built in the scratch), DecodeLimit only the
// decoded tensor — its struct, shape, strides and payload.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race: sync.Pool drops scratch at random")
	}
	tt := tensor.New("t", 300, 70) // 168 KB: the payload spans three chunks
	tt.FillRandom(1)
	var buf bytes.Buffer
	if err := Encode(&buf, tt); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if n := testing.AllocsPerRun(20, func() {
		if err := Encode(io.Discard, tt); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Encode allocates %v objects per frame, want 0", n)
	}
	r := bytes.NewReader(frame)
	if n := testing.AllocsPerRun(20, func() {
		r.Reset(frame)
		if _, err := DecodeLimit(r, tt.Size()); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("DecodeLimit allocates %v objects per frame, want at most the decoded tensor's 4", n)
	}
}

type maxWriteRecorder struct{ max int }

func (w *maxWriteRecorder) Write(p []byte) (int, error) {
	if len(p) > w.max {
		w.max = len(p)
	}
	return len(p), nil
}

// TestDecodeFromOneByteReader pins that Decode tolerates arbitrarily
// fragmented reads (as from a network stream).
func TestDecodeFromOneByteReader(t *testing.T) {
	tt := tensor.New("t", 9, 3)
	tt.FillRandom(5)
	var buf bytes.Buffer
	if err := Encode(&buf, tt); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(iotest(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(tt, back) {
		t.Fatal("fragmented decode is not bit-identical")
	}
}

func iotest(b []byte) io.Reader { return &oneByteReader{b: b} }

type oneByteReader struct{ b []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	p[0] = r.b[0]
	r.b = r.b[1:]
	return 1, nil
}
