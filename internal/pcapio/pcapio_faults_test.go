package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"anycastctx/internal/ipaddr"
)

// buildCapture writes n small UDP packets and returns the raw capture
// bytes plus the serialized packets.
func buildCapture(t *testing.T, n int) ([]byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2018, 4, 10, 0, 0, 0, 0, time.UTC)
	var pkts [][]byte
	for i := 0; i < n; i++ {
		pkt, err := SerializeUDPInto(nil, &IPv4{Src: ipaddr.Addr(0x0a000001 + i), Dst: 0xc6290004},
			&UDP{SrcPort: uint16(40000 + i), DstPort: 53}, []byte{byte(i), byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), pkt); err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, pkt)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), pkts
}

func TestWriterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := SerializeUDPInto(nil, &IPv4{Src: 1, Dst: 2}, &UDP{SrcPort: 1, DstPort: 53}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC), pkt); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if err := w.WritePacket(time.Now(), pkt); !errors.Is(err, ErrWriterClosed) {
		t.Errorf("WritePacket after Close = %v, want ErrWriterClosed", err)
	}
	if err := w.Flush(); !errors.Is(err, ErrWriterClosed) {
		t.Errorf("Flush after Close = %v, want ErrWriterClosed", err)
	}
	// Close flushed: the capture is complete and readable.
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Errorf("reading flushed capture: %v", err)
	}
}

func TestWriterTimestampRange(t *testing.T) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pkt := []byte{1, 2, 3}
	for _, ts := range []time.Time{
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Unix(-1, 0),
		time.Unix(math.MaxUint32+1, 0),
		time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		if err := w.WritePacket(ts, pkt); !errors.Is(err, ErrTimeRange) {
			t.Errorf("WritePacket(%v) = %v, want ErrTimeRange", ts, err)
		}
	}
	for _, ts := range []time.Time{
		time.Unix(0, 0),
		time.Unix(math.MaxUint32, 0),
		time.Date(2020, 5, 12, 0, 0, 0, 0, time.UTC),
	} {
		if err := w.WritePacket(ts, pkt); err != nil {
			t.Errorf("WritePacket(%v) = %v, want nil", ts, err)
		}
	}
}

func TestReaderTruncatedRecordFlagged(t *testing.T) {
	capture, pkts := buildCapture(t, 2)
	// Shrink record 0's included length by 2 without touching the
	// original length, deleting the same 2 bytes from its data: a capture
	// that stored less than was on the wire.
	incl := binary.LittleEndian.Uint32(capture[fileHeaderLen+8:])
	damaged := append([]byte{}, capture...)
	binary.LittleEndian.PutUint32(damaged[fileHeaderLen+8:], incl-2)
	cut := fileHeaderLen + recordHdrLen + int(incl) - 2
	damaged = append(damaged[:cut], damaged[cut+2:]...)

	for _, lenient := range []bool{false, true} {
		r, err := NewReader(bytes.NewReader(damaged))
		if err != nil {
			t.Fatal(err)
		}
		r.SetLenient(lenient)
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("lenient=%v: Next = %v", lenient, err)
		}
		if !rec.Truncated {
			t.Errorf("lenient=%v: truncated record not flagged", lenient)
		}
		if rec.OrigLen != len(pkts[0]) {
			t.Errorf("lenient=%v: OrigLen = %d, want %d", lenient, rec.OrigLen, len(pkts[0]))
		}
		if len(rec.Data) != len(pkts[0])-2 {
			t.Errorf("lenient=%v: data len = %d", lenient, len(rec.Data))
		}
		rec2, err := r.Next()
		if err != nil || rec2.Truncated || !bytes.Equal(rec2.Data, pkts[1]) {
			t.Errorf("lenient=%v: second record = %+v, %v", lenient, rec2, err)
		}
		if st := r.Stats(); st.Records != 2 || st.Truncated != 1 || st.Dropped != 0 {
			t.Errorf("lenient=%v: stats = %+v", lenient, st)
		}
	}
}

func TestReaderMidRecordEOF(t *testing.T) {
	capture, _ := buildCapture(t, 2)
	cut := capture[:len(capture)-3] // EOF inside the last record's data

	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("strict mid-record EOF = %v, want error", err)
	}

	r, err = NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	r.SetLenient(true)
	var n int
	if err := r.ForEach(func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("lenient ForEach = %v", err)
	}
	if n != 1 {
		t.Errorf("lenient records = %d, want 1", n)
	}
	if st := r.Stats(); st.Dropped != 1 {
		t.Errorf("lenient stats = %+v, want 1 drop", st)
	}
}

func TestReaderPartialHeaderAtEOF(t *testing.T) {
	capture, _ := buildCapture(t, 1)
	damaged := append(append([]byte{}, capture...), 0xFF, 0xFF, 0xFF) // 3 trailing junk bytes

	r, err := NewReader(bytes.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("strict partial header = %v, want error", err)
	}

	r, err = NewReader(bytes.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	r.SetLenient(true)
	var n int
	if err := r.ForEach(func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("lenient ForEach = %v", err)
	}
	if n != 1 {
		t.Errorf("lenient records = %d, want 1", n)
	}
	st := r.Stats()
	if st.Dropped != 1 || st.BytesSkipped != 3 {
		t.Errorf("lenient stats = %+v, want 1 drop / 3 bytes", st)
	}
}

func TestReaderResyncAcrossBadLength(t *testing.T) {
	capture, pkts := buildCapture(t, 3)
	// Blow up record 0's included length: strict readers abort, lenient
	// readers scan forward and recover records 1 and 2.
	damaged := append([]byte{}, capture...)
	binary.LittleEndian.PutUint32(damaged[fileHeaderLen+8:], 0xFFFFFFF0)

	r, err := NewReader(bytes.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("strict oversized length = %v, want error", err)
	}

	r, err = NewReader(bytes.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	r.SetLenient(true)
	var got [][]byte
	if err := r.ForEach(func(rec Record) error {
		got = append(got, rec.Data)
		return nil
	}); err != nil {
		t.Fatalf("lenient ForEach = %v", err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], pkts[1]) || !bytes.Equal(got[1], pkts[2]) {
		t.Fatalf("recovered %d records, want records 1 and 2", len(got))
	}
	st := r.Stats()
	if st.Resyncs != 1 || st.Dropped != 1 || st.BytesSkipped == 0 {
		t.Errorf("stats = %+v, want 1 resync / 1 drop", st)
	}
}

func TestReaderResyncGivesUpOnGarbageTail(t *testing.T) {
	capture, _ := buildCapture(t, 1)
	damaged := append([]byte{}, capture...)
	binary.LittleEndian.PutUint32(damaged[fileHeaderLen+8:], 0xFFFFFFF0)
	// Nothing plausible follows the damaged header: the scan must hit the
	// end of the stream and report EOF, not spin or error.
	r, err := NewReader(bytes.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	r.SetLenient(true)
	var n int
	if err := r.ForEach(func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("ForEach = %v", err)
	}
	if n != 0 {
		t.Errorf("records = %d, want 0", n)
	}
	if st := r.Stats(); st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}
