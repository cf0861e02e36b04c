package dnswire

import "testing"

// BenchmarkEncodeQuery measures query serialization with compression.
func BenchmarkEncodeQuery(b *testing.B) {
	q := NewQuery(1, "www.example.com", TypeA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.EncodeInto(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResponse measures parsing a referral-style response.
func BenchmarkDecodeResponse(b *testing.B) {
	q := NewQuery(2, "com", TypeNS)
	var answers []RR
	for i := 0; i < 6; i++ {
		rd, err := NameRData("a.gtld-servers.net")
		if err != nil {
			b.Fatal(err)
		}
		answers = append(answers, RR{Name: "com", Type: TypeNS, Class: ClassIN, TTL: 172800, RData: rd})
	}
	m := NewResponse(q, RCodeNoError, answers)
	m.Additional = []RR{
		{Name: "a.gtld-servers.net", Type: TypeA, Class: ClassIN, TTL: 172800, RData: ARData(192, 5, 6, 30)},
	}
	enc, err := m.EncodeInto(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendName measures name encoding with a compression table.
func BenchmarkAppendName(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, _, err = appendName(buf[:0], "a.b.example.com", compressionTable{}); err != nil {
			b.Fatal(err)
		}
	}
}
