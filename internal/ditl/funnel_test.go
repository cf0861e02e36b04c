package ditl

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"
)

// recordOffsets returns the byte offset of each record header in a pcap
// stream, so tests can patch individual records in place.
func recordOffsets(t *testing.T, capture []byte) []int {
	t.Helper()
	var offs []int
	off := 24 // classic pcap file header
	for off+16 <= len(capture) {
		offs = append(offs, off)
		incl := int(binary.LittleEndian.Uint32(capture[off+8:]))
		off += 16 + incl
	}
	if off != len(capture) {
		t.Fatalf("capture framing off: ended at %d of %d bytes", off, len(capture))
	}
	return offs
}

// TestSummarizeCaptureBucketsAreExclusive pins the exactly-once law of
// the degradation funnel: a record that is BOTH truncated and malformed
// lands only in the truncated bucket, each other damage kind lands in its
// own bucket, and the funnel totals reconcile with pcapio.ReaderStats
// (records read = decoded + truncated + malformed packet + malformed
// DNS, with zero reader drops for intact framing). The
// capture-accounting invariant checker asserts the same law end-to-end.
func TestSummarizeCaptureBucketsAreExclusive(t *testing.T) {
	f := buildFixture(t)
	var buf bytes.Buffer
	written, err := f.camp.EmitSiteCaptureCtx(context.Background(), &buf, 1, 0, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if written < 10 {
		t.Fatalf("only %d packets emitted", written)
	}
	capture := buf.Bytes()
	offs := recordOffsets(t, capture)
	if len(offs) != written {
		t.Fatalf("found %d record headers for %d written records", len(offs), written)
	}

	// Patch three records, leaving framing intact so the reader returns
	// every record and nothing is dropped or resynced:
	//  - record 1: truncated AND malformed — orig inflated past incl and
	//    the IP version byte destroyed. Must count once, as truncated.
	//  - record 3: malformed packet — IP version byte destroyed.
	//  - record 5: malformed DNS — the DNS header's QDCOUNT made a lie the
	//    decoder rejects (payload at IP 20 + UDP 8 + query-count offset 4).
	binary.LittleEndian.PutUint32(capture[offs[1]+12:], binary.LittleEndian.Uint32(capture[offs[1]+8:])+64)
	capture[offs[1]+16] = 0xFF
	capture[offs[3]+16] = 0xFF
	dnsIdx := -1
	for i, off := range offs {
		if i == 1 || i == 3 {
			continue
		}
		incl := int(binary.LittleEndian.Uint32(capture[off+8:]))
		data := capture[off+16 : off+16+incl]
		if len(data) < 28+12 || data[9] != 17 { // UDP only: fixed payload offset
			continue
		}
		dnsIdx = i
		data[28+4], data[28+5] = 0xFF, 0xFF
		break
	}
	if dnsIdx < 0 {
		t.Fatal("no UDP DNS record found to corrupt")
	}

	sum, err := SummarizeCapture(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if sum.TruncatedRecords != 1 {
		t.Errorf("truncated bucket = %d, want exactly 1 (the truncated+malformed record counts once)",
			sum.TruncatedRecords)
	}
	if sum.MalformedPackets != 1 {
		t.Errorf("malformed packet bucket = %d, want 1", sum.MalformedPackets)
	}
	if sum.MalformedDNS != 1 {
		t.Errorf("malformed DNS bucket = %d, want 1", sum.MalformedDNS)
	}
	if sum.RecordsRead != written {
		t.Errorf("records read = %d, want %d (framing untouched)", sum.RecordsRead, written)
	}
	if sum.DroppedRecords != 0 || sum.SkippedBytes != 0 {
		t.Errorf("reader recovery fired on intact framing: %d dropped, %d bytes skipped",
			sum.DroppedRecords, sum.SkippedBytes)
	}
	if got := sum.Packets + sum.Skipped(); got != sum.RecordsRead {
		t.Errorf("buckets sum to %d of %d records: funnel lost or double-counted", got, sum.RecordsRead)
	}
	if sum.Packets != written-3 {
		t.Errorf("decoded packets = %d, want %d (3 damaged)", sum.Packets, written-3)
	}
}

// TestSummarizeCaptureReconciliationGuard proves the ReaderStats
// cross-check in SummarizeCapture is wired to real reader accounting:
// a capture whose tail is cut mid-record reads back with the drop counted
// by the reader and mirrored into the summary, still reconciling.
func TestSummarizeCaptureReconciliationGuard(t *testing.T) {
	f := buildFixture(t)
	var buf bytes.Buffer
	written, err := f.camp.EmitSiteCaptureCtx(context.Background(), &buf, 1, 0, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	capture := buf.Bytes()
	offs := recordOffsets(t, capture)
	cut := capture[:offs[len(offs)-1]+20] // inside the last record's data
	sum, err := SummarizeCapture(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if sum.DroppedRecords != 1 {
		t.Errorf("dropped = %d, want 1 (mid-record EOF)", sum.DroppedRecords)
	}
	if sum.RecordsRead != written-1 {
		t.Errorf("records read = %d, want %d", sum.RecordsRead, written-1)
	}
	if got := sum.RecordsRead + sum.DroppedRecords; got != written {
		t.Errorf("read + dropped = %d, want %d written", got, written)
	}
}
