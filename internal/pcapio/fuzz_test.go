package pcapio

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzReaderNext feeds arbitrary bytes to the lenient reader: it must
// never panic, never loop forever, and every record it recovers must be
// safe to hand to DecodePacket. Seed corpus under
// testdata/fuzz/FuzzReaderNext.
func FuzzReaderNext(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	base := time.Date(2018, 4, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		pkt, err := SerializeUDPInto(nil, &IPv4{Src: 1, Dst: 2}, &UDP{SrcPort: uint16(i), DstPort: 53}, []byte{byte(i)})
		if err != nil {
			f.Fatal(err)
		}
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), pkt); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte{}, valid...))
	f.Add(valid[:len(valid)-3]) // mid-record EOF
	badLen := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(badLen[fileHeaderLen+8:], 0xFFFFFFF0)
	f.Add(badLen)
	f.Add(valid[:fileHeaderLen]) // header only
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		r.SetLenient(true)
		// The lenient reader always consumes input, so iteration is
		// bounded by len(data); the explicit cap guards that invariant.
		for i := 0; i <= len(data)/recordHdrLen+1; i++ {
			rec, err := r.Next()
			if err != nil {
				break
			}
			_, _ = DecodePacket(rec.Data)
		}
		st := r.Stats()
		if st.Records < 0 || st.Dropped < 0 || st.BytesSkipped < 0 {
			t.Fatalf("negative stats: %+v", st)
		}
	})
}
