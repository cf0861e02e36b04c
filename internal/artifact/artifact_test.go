package artifact

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCodecRoundTrip: every value written comes back exactly, the payload
// is consumed exactly, and a re-encode of the decoded values is
// byte-identical to the original payload.
func TestCodecRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with payload bits
	encode := func() []byte {
		w := NewWriter(64)
		w.U8(200)
		w.U32(0xdeadbeef)
		w.U64(1 << 62)
		w.I64(-42)
		w.I32(-7)
		w.F64(3.25)
		w.F64(nan)
		w.F64(math.Inf(-1))
		w.Bool(true)
		w.Bool(false)
		w.Str("héllo")
		w.Str("")
		w.U32s([]uint32{1, 2, 3})
		w.U32s(nil)
		w.F64s([]float64{-0.0, 1e300})
		return w.Bytes()
	}
	blob := encode()
	r := NewReader(blob)
	w2 := NewWriter(len(blob))
	w2.U8(r.U8())
	w2.U32(r.U32())
	w2.U64(r.U64())
	w2.I64(r.I64())
	w2.I32(r.I32())
	w2.F64(r.F64())
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("NaN payload bits lost: %x", math.Float64bits(got))
	}
	w2.F64(nan)
	w2.F64(r.F64())
	w2.Bool(r.Bool())
	w2.Bool(r.Bool())
	w2.Str(r.Str())
	w2.Str(r.Str())
	w2.U32s(r.U32s())
	w2.U32s(r.U32s())
	w2.F64s(r.F64s())
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if !bytes.Equal(blob, w2.Bytes()) {
		t.Error("re-encode of decoded values is not byte-identical")
	}
}

// TestReaderStickyErrors: a short read poisons the reader, later reads
// return zero values, and Done reports the failure.
func TestReaderStickyErrors(t *testing.T) {
	w := NewWriter(8)
	w.U32(7)
	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0 { // 8 bytes wanted, 4 available
		t.Errorf("truncated U64 = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("no error after short read")
	}
	if got := r.U32(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
	if r.Done() == nil {
		t.Error("Done nil on poisoned reader")
	}
}

// TestReaderTrailingBytes: extra bytes after a complete decode are a
// codec mismatch, not a success.
func TestReaderTrailingBytes(t *testing.T) {
	w := NewWriter(8)
	w.U32(1)
	w.U32(2)
	r := NewReader(w.Bytes())
	r.U32()
	if err := r.Done(); err == nil {
		t.Error("Done accepted 4 trailing bytes")
	}
}

// TestReaderHugeLengthPrefix: a corrupt count prefix must fail fast, not
// attempt a giant allocation.
// TestReaderBoolStrict: a boolean byte other than 0 or 1 is a decode
// error, not a silent true that would re-encode as 1.
func TestReaderBoolStrict(t *testing.T) {
	r := NewReader([]byte{0, 1, '0'})
	if r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatal("0 and 1 must decode as false and true")
	}
	if r.Bool() || r.Err() == nil {
		t.Fatal("byte 0x30 accepted as a boolean")
	}
}

func TestReaderHugeLengthPrefix(t *testing.T) {
	w := NewWriter(16)
	w.U64(1 << 60) // claims ~10^18 elements
	w.U32(1)
	r := NewReader(w.Bytes())
	if got := r.U32s(); got != nil {
		t.Errorf("corrupt length returned %d elements", len(got))
	}
	if r.Err() == nil {
		t.Error("corrupt length prefix not reported")
	}
	// Same for strings.
	w = NewWriter(8)
	w.U32(1 << 30)
	r = NewReader(w.Bytes())
	if got := r.Str(); got != "" {
		t.Errorf("corrupt string length returned %d bytes", len(got))
	}
	if r.Err() == nil {
		t.Error("corrupt string length not reported")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the stage output")
	if _, err := s.Load("campaign", "k1"); !errors.Is(err, ErrMiss) {
		t.Fatalf("empty store: err = %v, want ErrMiss", err)
	}
	if _, ok := s.Stat("campaign", "k1"); ok {
		t.Error("Stat ok on empty store")
	}
	if err := s.Save("campaign", "k1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("campaign", "k1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("Load = %q, want %q", got, payload)
	}
	if n, ok := s.Stat("campaign", "k1"); !ok || n != int64(len(payload)) {
		t.Errorf("Stat = %d,%v want %d,true", n, ok, len(payload))
	}
	// A different key for the same stage misses — content addressing, not
	// name addressing.
	if _, err := s.Load("campaign", "k2"); !errors.Is(err, ErrMiss) {
		t.Errorf("different key: err = %v, want ErrMiss", err)
	}
	// No leftover temp files from the atomic write.
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// TestStoreDetectsDamage: a flipped payload bit or truncated file yields
// a descriptive non-ErrMiss error, which the world layer treats as
// corruption and recomputes.
func TestStoreDetectsDamage(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, 1024)
	if err := s.Save("routes", "key", payload); err != nil {
		t.Fatal(err)
	}
	path := s.Path("routes", "key")

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-10] ^= 1
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("routes", "key"); err == nil || errors.Is(err, ErrMiss) {
		t.Errorf("bit flip: err = %v, want checksum failure", err)
	}

	if err := os.WriteFile(path, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("routes", "key"); err == nil || errors.Is(err, ErrMiss) {
		t.Errorf("truncation: err = %v, want load failure", err)
	}

	// Wrong magic — e.g. a foreign file dropped into the cache dir.
	if err := os.WriteFile(path, []byte("GIF89a..."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("routes", "key"); err == nil || errors.Is(err, ErrMiss) {
		t.Errorf("foreign file: err = %v, want load failure", err)
	}
}

// TestStoreCreatesDir: Open on a missing directory creates it.
func TestStoreCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("x", "y", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Load("x", "y"); err != nil || string(got) != "z" {
		t.Fatalf("Load = %q, %v", got, err)
	}
}
