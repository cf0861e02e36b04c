package dnswire

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"anycastctx/internal/obs"
)

// refAppendName and refEncodeInto are the map-keyed, Split/Join encoder
// (then the exported AppendName) that the slice-table encoder replaced,
// kept as an oracle: the wire bytes of every message must not change.
func refAppendName(b []byte, name string, table map[string]int) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(b, 0), nil
	}
	if len(name)+2 > maxNameLen {
		return nil, ErrNameTooLong
	}
	labels := strings.Split(name, ".")
	for i := range labels {
		suffix := strings.Join(labels[i:], ".")
		if table != nil {
			if off, ok := table[suffix]; ok && off < 0x4000 {
				b = append(b, 0xC0|byte(off>>8), byte(off))
				return b, nil
			}
			if len(b) < 0x4000 {
				table[suffix] = len(b)
			}
		}
		l := labels[i]
		if len(l) == 0 {
			return nil, fmt.Errorf("dnswire: empty label in %q", name)
		}
		if len(l) > 63 {
			return nil, ErrLabelTooLong
		}
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	return append(b, 0), nil
}

func refEncodeInto(m *Message, buf []byte) ([]byte, error) {
	for _, n := range []int{len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional)} {
		if n > 0xFFFF {
			return nil, fmt.Errorf("dnswire: section of %d entries exceeds 16-bit count", n)
		}
	}
	b := buf[:0]
	if cap(b) < 64 {
		b = make([]byte, 0, 64)
	}
	b = appendU16(b, m.Header.ID)
	b = appendU16(b, m.Header.flags())
	b = appendU16(b, uint16(len(m.Questions)))
	b = appendU16(b, uint16(len(m.Answers)))
	b = appendU16(b, uint16(len(m.Authority)))
	b = appendU16(b, uint16(len(m.Additional)))
	table := map[string]int{}
	var err error
	for _, q := range m.Questions {
		if b, err = refAppendName(b, q.Name, table); err != nil {
			return nil, err
		}
		b = appendU16(b, uint16(q.Type))
		b = appendU16(b, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if b, err = refAppendName(b, rr.Name, table); err != nil {
				return nil, err
			}
			b = appendU16(b, uint16(rr.Type))
			b = appendU16(b, uint16(rr.Class))
			b = appendU32(b, rr.TTL)
			if len(rr.RData) > 0xFFFF {
				return nil, fmt.Errorf("dnswire: rdata too long (%d)", len(rr.RData))
			}
			b = appendU16(b, uint16(len(rr.RData)))
			b = append(b, rr.RData...)
		}
	}
	return b, nil
}

// oracleName draws a name from a small label pool, so suffixes repeat
// across a message, with an occasional empty, 63- or 64-octet label, a
// trailing dot, or a name past 255 octets.
func oracleName(rng *rand.Rand) string {
	pool := []string{"com", "net", "example", "ns1", "ns2", "a", "b", "root-servers", "gtld-servers", "in-addr", "arpa"}
	switch rng.Intn(300) {
	case 0:
		return ""
	case 1:
		return "."
	case 2:
		return strings.Repeat("x", 63) + ".com"
	case 3:
		return strings.Repeat("y", 64) + ".net"
	case 4:
		return "a..com"
	case 5:
		return ".com"
	case 6:
		return strings.TrimSuffix(strings.Repeat("abcdefghi.", 26), ".")
	case 7:
		return strings.TrimSuffix(strings.Repeat("abcdefghi.", 25), ".") + "z"
	}
	n := 1 + rng.Intn(5)
	labels := make([]string, n)
	for i := range labels {
		labels[i] = pool[rng.Intn(len(pool))]
		if rng.Intn(8) == 0 {
			labels[i] += fmt.Sprint(rng.Intn(30))
		}
	}
	name := strings.Join(labels, ".")
	if rng.Intn(4) == 0 {
		name += "."
	}
	return name
}

// oracleMessage builds a message of up to ~60 names spread over all four
// sections, well past the 16 entries the encoder keeps on its stack, now
// and then behind a 16 KiB record.
func oracleMessage(rng *rand.Rand) *Message {
	m := &Message{Header: Header{ID: uint16(rng.Intn(65536)), Response: rng.Intn(2) == 0, RCode: RCode(rng.Intn(6))}}
	rr := func() RR {
		rd := make([]byte, rng.Intn(8))
		rng.Read(rd)
		return RR{Name: oracleName(rng), Type: Type(1 + rng.Intn(40)), Class: ClassIN, TTL: rng.Uint32(), RData: rd}
	}
	for i := rng.Intn(3); i > 0; i-- {
		m.Questions = append(m.Questions, Question{Name: oracleName(rng), Type: TypeNS, Class: ClassIN})
	}
	if rng.Intn(10) == 0 {
		// Push later names past the 14-bit pointer range: they can
		// still point back, but are no longer recorded.
		m.Answers = append(m.Answers, RR{Name: oracleName(rng), Type: TypeTXT, Class: ClassIN, RData: make([]byte, 0x4000)})
	}
	for i := rng.Intn(20); i > 0; i-- {
		m.Answers = append(m.Answers, rr())
	}
	for i := rng.Intn(20); i > 0; i-- {
		m.Authority = append(m.Authority, rr())
	}
	for i := rng.Intn(20); i > 0; i-- {
		m.Additional = append(m.Additional, rr())
	}
	return m
}

// TestEncodeMatchesMapOracle byte-compares EncodeInto against the map
// oracle on random messages, errors included.
func TestEncodeMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scratch := bytes.Repeat([]byte{0xEE}, 1024)
	var ok, failed, many int
	for i := 0; i < 5000; i++ {
		m := oracleMessage(rng)
		want, wantErr := refEncodeInto(m, nil)
		got, gotErr := m.EncodeInto(scratch)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
			t.Fatalf("message %d (%+v): got %x, %v; oracle %x, %v", i, m, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			failed++
			continue
		}
		ok++
		if len(m.Questions)+len(m.Answers)+len(m.Authority)+len(m.Additional) > 16 {
			many++
		}
		scratch = got
	}
	if ok < 500 || failed < 500 || many < 200 {
		t.Fatalf("oracle mix too thin: %d encoded (%d with >16 names), %d rejected", ok, many, failed)
	}
}

// TestAppendNameMatchesMapOracle compares single names, with and without
// compression, including a table shared across several names.
func TestAppendNameMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		refTable := map[string]int{}
		table := compressionTable{}
		var want, got []byte
		for k := 0; k < 1+rng.Intn(24); k++ {
			name := oracleName(rng)
			w, wErr := refAppendName(want, name, refTable)
			g, next, gErr := appendName(got, name, table)
			if fmt.Sprint(gErr) != fmt.Sprint(wErr) || !bytes.Equal(g, w) {
				t.Fatalf("name %q after %x: got %x, %v; oracle %x, %v", name, want, g, gErr, w, wErr)
			}
			if wErr != nil {
				break
			}
			want, got, table = w, g, next
		}
		name := oracleName(rng)
		w, wErr := refAppendName(nil, name, nil)
		g, gErr := NameRData(name)
		if fmt.Sprint(gErr) != fmt.Sprint(wErr) || !bytes.Equal(g, w) {
			t.Fatalf("uncompressed %q: got %x, %v; oracle %x, %v", name, g, gErr, w, wErr)
		}
	}
}

// TestEncodeIntoAllocations: a message of at most 16 distinct names
// encodes into a large enough buffer without allocating; the compression
// table stays on the stack.
func TestEncodeIntoAllocations(t *testing.T) {
	q := NewQuery(7, "www.example.com", TypeA)
	q.SetEDNS(4096, true)
	m := NewResponse(q, RCodeNoError, []RR{{Name: "www.example.com", Type: TypeA, Class: ClassIN, TTL: 60, RData: ARData(192, 0, 2, 1)}})
	m.Authority = []RR{{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 60, RData: []byte{0}}}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = m.EncodeInto(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EncodeInto allocated %v times", allocs)
	}
}

// TestScanCountsLikeDecode: Scan moves the dnswire.* counters exactly as
// Decode does over a mix of good and damaged messages, and allocates
// nothing.
func TestScanCountsLikeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var inputs [][]byte
	for len(inputs) < 300 {
		enc, err := oracleMessage(rng).EncodeInto(nil)
		if err != nil {
			continue
		}
		if rng.Intn(2) == 0 {
			enc = enc[:rng.Intn(len(enc)+1)]
		}
		inputs = append(inputs, enc)
	}
	deltas := func(decode func([]byte)) map[string]uint64 {
		before := obs.TakeSnapshot()
		for _, in := range inputs {
			decode(in)
		}
		return obs.TakeSnapshot().CounterDeltas(before)
	}
	want := deltas(func(b []byte) { Decode(b) })
	got := deltas(func(b []byte) { Scan(b) })
	for _, name := range []string{"dnswire.messages_decoded", "dnswire.decode_errors"} {
		if got[name] != want[name] {
			t.Errorf("%s: Scan moved it by %d, Decode by %d", name, got[name], want[name])
		}
	}
	if want["dnswire.messages_decoded"] == 0 || want["dnswire.decode_errors"] == 0 {
		t.Fatalf("input mix too thin: %v", want)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, in := range inputs {
			Scan(in)
		}
	}); allocs != 0 {
		t.Errorf("Scan allocated %v times over %d messages", allocs, len(inputs))
	}
}
