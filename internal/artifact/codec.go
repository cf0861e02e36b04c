package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer builds a deterministic little-endian binary payload. Floats are
// stored as raw IEEE-754 bits, so every value (NaN payloads included)
// round-trips exactly and encode(decode(encode(x))) is byte-identical to
// encode(x).
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity pre-sized to sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded payload. The slice aliases the writer.
func (w *Writer) Bytes() []byte { return w.buf }

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) I32(v int32)  { w.U32(uint32(v)) }
func (w *Writer) F64(v float64) {
	w.U64(math.Float64bits(v))
}
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str encodes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// U32s encodes a length-prefixed []uint32.
func (w *Writer) U32s(vs []uint32) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U32(v)
	}
}

// F64s encodes a length-prefixed []float64.
func (w *Writer) F64s(vs []float64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Reader decodes a Writer payload with sticky error handling: after the
// first short read every subsequent call returns zero values, and Err
// reports what went wrong. Callers check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error (nil if none so far).
func (r *Reader) Err() error { return r.err }

// Done verifies the payload was consumed exactly: no decode error and no
// trailing bytes (trailing garbage means a codec mismatch).
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("artifact: %d trailing bytes after decode", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("artifact: truncated payload at offset %d", r.off)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }
func (r *Reader) I32() int32 { return int32(r.U32()) }
func (r *Reader) F64() float64 {
	return math.Float64frombits(r.U64())
}

// Bool decodes a Writer.Bool. Only 0 and 1 are booleans: any other byte
// is a decode error, so every accepted payload re-encodes to itself.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	if r.err == nil {
		r.err = fmt.Errorf("artifact: non-boolean byte at offset %d", r.off-1)
	}
	return false
}

// Str decodes a length-prefixed string.
func (r *Reader) Str() string {
	n := r.U32()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// Count decodes a U64 element count and validates it against the bytes
// actually left, so a corrupt count can force neither a huge allocation
// nor a long decode loop before the short read is noticed. minElemSize
// (≥ 1) is the minimum encoded size of one element. A count that cannot
// fit fails the reader and returns 0.
func (r *Reader) Count(minElemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off)/uint64(minElemSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// U32s decodes a length-prefixed []uint32. Returns nil for length 0.
func (r *Reader) U32s() []uint32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.U32()
	}
	return out
}

// F64s decodes a length-prefixed []float64. Returns nil for length 0.
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}
