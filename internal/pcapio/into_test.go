package pcapio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"anycastctx/internal/ipaddr"
)

// The *Into serializers reuse caller buffers on the hot capture-emission
// path. Checksums sum over reserved header bytes, so any stale content
// surviving reuse would corrupt output; these tests byte-compare reused
// buffers against fresh allocations.

func TestSerializeIntoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Dirty scratch buffer, deliberately larger than any packet below and
	// filled with junk so reuse without zeroing would show.
	scratch := make([]byte, 4096)
	for i := range scratch {
		scratch[i] = 0xAA
	}
	for trial := 0; trial < 200; trial++ {
		payload := make([]byte, rng.Intn(300))
		for i := range payload {
			payload[i] = byte(rng.Int())
		}
		ip := &IPv4{
			Src: ipaddr.Addr(rng.Uint32()),
			Dst: ipaddr.Addr(rng.Uint32()),
			ID:  uint16(rng.Int()),
			TTL: uint8(1 + rng.Intn(255)),
		}
		if trial%2 == 0 {
			udp := &UDP{SrcPort: uint16(rng.Int()), DstPort: 53}
			fresh, err := SerializeUDPInto(nil, ip, udp, payload)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := SerializeUDPInto(scratch, ip, udp, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, reused) {
				t.Fatalf("trial %d: UDP reuse differs from fresh", trial)
			}
			scratch = reused
		} else {
			tcp := &TCP{
				SrcPort: uint16(rng.Int()), DstPort: 53,
				Seq: rng.Uint32(), Ack: rng.Uint32(),
				Flags: uint8(rng.Intn(32)),
			}
			fresh, err := SerializeTCPInto(nil, ip, tcp, payload)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := SerializeTCPInto(scratch, ip, tcp, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, reused) {
				t.Fatalf("trial %d: TCP reuse differs from fresh", trial)
			}
			scratch = reused
		}
	}
}

func TestSerializeIntoGrowsSmallBuffer(t *testing.T) {
	ip := &IPv4{Src: 0x01020304, Dst: 0x05060708}
	payload := bytes.Repeat([]byte{0x42}, 100)
	small := make([]byte, 0, 8)
	got, err := SerializeUDPInto(small, ip, &UDP{SrcPort: 1000, DstPort: 53}, payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SerializeUDPInto(nil, ip, &UDP{SrcPort: 1000, DstPort: 53}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("undersized buffer path differs from fresh")
	}
}

// TestWriterPooledReuse drives several Writer lifecycles (the bufio layer
// is pooled across them) and checks each file round-trips independently.
func TestWriterPooledReuse(t *testing.T) {
	for round := 0; round < 4; round++ {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := SerializeUDPInto(nil, &IPv4{Src: 1, Dst: 2}, &UDP{SrcPort: uint16(round + 1), DstPort: 53}, []byte{byte(round)})
		if err != nil {
			t.Fatal(err)
		}
		ts := time.Unix(1600000000+int64(round), 0).UTC()
		if err := w.WritePacket(ts, pkt); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Data, pkt) || !rec.Time.Equal(ts) {
			t.Fatalf("round %d: packet did not round-trip through pooled writer", round)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("round %d: want EOF, got %v", round, err)
		}
	}
}

// TestWriterCloseIdempotent: Close after Close must not double-return the
// pooled bufio writer (which would corrupt a concurrent Writer).
func TestWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Unix(1600000000, 0), []byte{1, 2, 3}); err == nil {
		t.Fatal("WritePacket after Close succeeded")
	}
}

// readAll drains r with next, copying each record's data out, and
// returns the records, the reader's stats and the terminating error.
func readAll(r *Reader, next func() (Record, error)) ([]Record, ReaderStats, error) {
	var recs []Record
	for {
		rec, err := next()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return recs, r.Stats(), err
		}
		rec.Data = append([]byte(nil), rec.Data...)
		recs = append(recs, rec)
	}
}

// TestNextIntoMatchesNext reads clean and damaged captures through both
// entry points, strict and lenient: NextInto with one reused buffer must
// return the same records, errors and recovery accounting as Next.
func TestNextIntoMatchesNext(t *testing.T) {
	capture, _ := buildCapture(t, 40)
	badLen := append([]byte{}, capture...)
	binary.LittleEndian.PutUint32(badLen[fileHeaderLen+8:], maxSnapLen+1)
	truncated := append([]byte{}, capture...)
	binary.LittleEndian.PutUint32(truncated[fileHeaderLen+12:], 999)
	inputs := map[string][]byte{
		"clean":     capture,
		"bad_len":   badLen,
		"truncated": truncated,
		"cut_tail":  capture[:len(capture)-5],
		"cut_hdr":   capture[:fileHeaderLen+7],
	}
	for name, in := range inputs {
		for _, lenient := range []bool{false, true} {
			open := func() *Reader {
				r, err := NewReader(bytes.NewReader(in))
				if err != nil {
					t.Fatal(err)
				}
				r.SetLenient(lenient)
				return r
			}
			r1 := open()
			want, wantSt, wantErr := readAll(r1, r1.Next)
			r2 := open()
			buf := make([]byte, 0, 64)
			got, gotSt, gotErr := readAll(r2, func() (Record, error) {
				rec, err := r2.NextInto(buf)
				if err == nil && len(rec.Data) > 0 && &rec.Data[0] != &buf[:1][0] {
					t.Errorf("%s lenient=%v: NextInto did not reuse the buffer", name, lenient)
				}
				return rec, err
			})
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotSt != wantSt || len(got) != len(want) {
				t.Fatalf("%s lenient=%v: NextInto gave %d records, err %v, stats %+v; Next gave %d, %v, %+v",
					name, lenient, len(got), gotErr, gotSt, len(want), wantErr, wantSt)
			}
			for i := range want {
				if !got[i].Time.Equal(want[i].Time) || !bytes.Equal(got[i].Data, want[i].Data) ||
					got[i].Truncated != want[i].Truncated || got[i].OrigLen != want[i].OrigLen {
					t.Fatalf("%s lenient=%v: record %d differs", name, lenient, i)
				}
			}
		}
	}
}

// TestNextIntoAllocationFree: with a large enough buffer, reading a record
// allocates nothing; an undersized buffer falls back to a fresh slice.
func TestNextIntoAllocationFree(t *testing.T) {
	const runs = 200
	capture, pkts := buildCapture(t, runs+1)
	r, err := NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := r.NextInto(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("NextInto allocated %v times per record", allocs)
	}

	r, err = NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 0, 4)
	rec, err := r.NextInto(small)
	if err != nil || !bytes.Equal(rec.Data, pkts[0]) || cap(small) != 4 {
		t.Fatalf("undersized buffer: %v, data %x", err, rec.Data)
	}
}
