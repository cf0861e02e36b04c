package dnswire

import (
	"bytes"
	"fmt"
	"testing"
)

// TestEncodeIntoMatchesEncode byte-compares EncodeInto into a fresh
// buffer against EncodeInto into one deliberately dirty scratch buffer,
// reused across message shapes: name-compression pointers are
// message-relative, so any contamination from a previous encode would
// corrupt later packets.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	scratch := bytes.Repeat([]byte{0xEE}, 2048)
	for i := 0; i < 50; i++ {
		q := NewQuery(uint16(i), fmt.Sprintf("ns%d.example%d.test", i, i%7), TypeA)
		msgs := []*Message{q, NewResponse(q, RCodeNXDomain, nil)}
		nsData, err := NameRData(fmt.Sprintf("a.ns%d.example%d.test", i, i%7))
		if err != nil {
			t.Fatal(err)
		}
		ref := NewResponse(q, RCodeNoError, []RR{
			{Name: q.Questions[0].Name, Type: TypeNS, Class: ClassIN, TTL: 172800, RData: nsData},
		})
		ref.Additional = []RR{
			{Name: "a.gtld-servers.net", Type: TypeA, Class: ClassIN, TTL: 172800, RData: ARData(192, 5, 6, byte(i))},
		}
		msgs = append(msgs, ref)
		for mi, m := range msgs {
			fresh, err := m.EncodeInto(nil)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := m.EncodeInto(scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, reused) {
				t.Fatalf("iter %d msg %d: reused buffer differs from fresh", i, mi)
			}
			scratch = reused
		}
	}
}

// TestEncodeIntoSmallBuffer: a buffer below the minimum capacity must be
// abandoned for a fresh allocation, not overflowed.
func TestEncodeIntoSmallBuffer(t *testing.T) {
	q := NewQuery(1, "example.test", TypeA)
	want, err := q.EncodeInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.EncodeInto(make([]byte, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("small-buffer encode differs")
	}
}
