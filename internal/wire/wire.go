// Package wire is the binary tensor transport of the DISTAL service: a
// versioned codec that moves tensor.Dense values over byte streams without
// ever materializing a second copy of the payload, plus the request/response
// protocol POST /v1/run speaks over it (protocol.go) and a client that
// drives the endpoint end to end (client.go).
//
// One encoded tensor — a frame — is self-delimiting:
//
//	offset  size      field
//	0       4         magic "DTWF"
//	4       1         version (1)
//	5       1         dtype (1 = float64, little-endian)
//	6       2         rank, uint16 little-endian
//	8       rank*8    dims, uint64 little-endian each
//	...     count*8   payload: product(dims) float64 values,
//	                  little-endian, row-major
//
// Frames concatenate back to back with no extra framing: the header declares
// the payload size, so a reader always knows where the next frame starts.
// Multi-tensor request and response bodies are plain frame sequences whose
// names and order travel in the JSON envelope (see protocol.go).
//
// Encode and Decode stream through a fixed-size scratch buffer taken from a
// package-level pool: the header and the payload are converted to and from
// little-endian in chunks, so a frame allocates nothing but the decoded
// tensor — and that allocation happens only after the header has been
// validated against the decoder's element limit, so a hostile header cannot
// make the decoder allocate ahead of what the caller declared acceptable.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"distal/internal/tensor"
)

const (
	// Version is the codec version this package reads and writes.
	Version = 1
	// DTypeFloat64 is the only dtype of version 1: IEEE-754 binary64,
	// little-endian. The field exists so later versions can add narrower
	// types without a new magic.
	DTypeFloat64 = 1
	// MaxRank bounds the rank field: higher ranks are rejected before any
	// dim is read. Far above what schedules support, but it keeps a hostile
	// header from requesting a multi-gigabyte dims read.
	MaxRank = 64
	// DefaultMaxElements bounds Decode's payload allocation when the caller
	// has no better limit: 1<<27 float64s = 1 GiB. Servers that know the
	// expected shape should pass the exact element count to DecodeLimit.
	DefaultMaxElements = 1 << 27

	headerSize = 8 // magic + version + dtype + rank
	chunkBytes = 64 << 10
)

var magic = [4]byte{'D', 'T', 'W', 'F'}

// chunks holds the codec's scratch buffers. Returning one after a frame is
// safe: an io.Writer must not retain the slice it is given, and Decode copies
// every value out of the buffer before it returns.
var chunks = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// FormatError reports a malformed or out-of-policy frame: bad magic, an
// unsupported version or dtype, an oversized rank or payload, or a truncated
// body. Servers map it to a client-error status; it never indicates a fault
// of the reader itself.
type FormatError struct {
	msg string
}

func (e *FormatError) Error() string { return "wire: " + e.msg }

func formatErrf(format string, args ...any) error {
	return &FormatError{msg: fmt.Sprintf(format, args...)}
}

// EncodedSize returns the exact number of bytes Encode will write for t.
func EncodedSize(t *tensor.Dense) int64 {
	return int64(headerSize) + int64(t.Rank())*8 + t.Bytes()
}

// Encode writes t as one frame. Header and payload stream through a pooled
// scratch buffer (64 KiB), so encoding never holds a second copy of the
// tensor and allocates nothing; a caller streaming an HTTP response can wrap
// w in a flushing writer to get chunked transfer with bounded latency.
func Encode(w io.Writer, t *tensor.Dense) error {
	buf := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(buf)
	shape := t.Shape()
	copy(buf[:], magic[:])
	buf[4] = Version
	buf[5] = DTypeFloat64
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(shape)))
	// n is the filled prefix of buf; every field is 8 bytes wide past the
	// fixed header, so a full buffer is exactly n == chunkBytes.
	n := headerSize
	for _, s := range shape {
		if n == chunkBytes {
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], uint64(s))
		n += 8
	}
	data := t.Data()
	for len(data) > 0 {
		if n == chunkBytes {
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
			n = 0
		}
		k := min((chunkBytes-n)/8, len(data))
		out := buf[n : n+8*k]
		for i, v := range data[:k] {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		n += 8 * k
		data = data[k:]
	}
	_, err := w.Write(buf[:n])
	return err
}

// Decode reads one frame under the default element limit. The decoded
// tensor has no name; Rename it before binding.
func Decode(r io.Reader) (*tensor.Dense, error) {
	return DecodeLimit(r, DefaultMaxElements)
}

// DecodeLimit reads one frame, rejecting any header that declares more than
// maxElems payload elements before allocating anything payload-sized. A
// server expecting a known shape passes its exact element count, so a lying
// header can never allocate beyond what the request declared. Truncated
// input fails with io.ErrUnexpectedEOF wrapped in a FormatError; Decode
// never panics on arbitrary input.
func DecodeLimit(r io.Reader, maxElems int) (*tensor.Dense, error) {
	buf := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(buf)
	hdr := buf[:headerSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, formatErrf("missing frame header: %v", err)
		}
		return nil, formatErrf("truncated frame header: %v", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, formatErrf("bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return nil, formatErrf("unsupported version %d (want %d)", hdr[4], Version)
	}
	if hdr[5] != DTypeFloat64 {
		return nil, formatErrf("unsupported dtype %d (want %d = float64)", hdr[5], DTypeFloat64)
	}
	rank := int(binary.LittleEndian.Uint16(hdr[6:8]))
	if rank > MaxRank {
		return nil, formatErrf("rank %d exceeds the limit of %d", rank, MaxRank)
	}
	dims := buf[:rank*8] // MaxRank*8 bytes fit the scratch
	if _, err := io.ReadFull(r, dims); err != nil {
		return nil, formatErrf("truncated dims: %v", err)
	}
	if maxElems < 0 || maxElems > DefaultMaxElements {
		maxElems = DefaultMaxElements
	}
	var shapeArr [MaxRank]int
	shape := shapeArr[:rank]
	for d := range shape {
		v := binary.LittleEndian.Uint64(dims[8*d:])
		if v > uint64(maxElems) {
			return nil, formatErrf("dim %d = %d exceeds the element limit of %d", d, v, maxElems)
		}
		shape[d] = int(v)
	}
	total, err := tensor.Elems(shape)
	if err != nil || total > maxElems {
		return nil, formatErrf("payload of %v elements exceeds the limit of %d", slices.Clone(shape), maxElems)
	}
	data := make([]float64, total)
	for off := 0; off < total; {
		n := min(chunkBytes/8, total-off)
		in := buf[:8*n]
		if _, err := io.ReadFull(r, in); err != nil {
			return nil, formatErrf("truncated payload at element %d of %d: %v", off, total, err)
		}
		out := data[off : off+n]
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		}
		off += n
	}
	return tensor.FromData("", data, shape...), nil
}

// EncodeFrames writes the tensors back to back in the given order.
func EncodeFrames(w io.Writer, ts ...*tensor.Dense) error {
	for _, t := range ts {
		if err := Encode(w, t); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes t as a single-frame .dt file.
func WriteFile(path string, t *tensor.Dense) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a single-frame .dt file, naming the tensor name.
func ReadFile(path, name string) (*tensor.Dense, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t.Rename(name), nil
}
