package ditl

import (
	"bytes"
	"context"
	"testing"
)

// captureAllocBound is the allocation budget per packet for emitting one
// site capture and summarizing it back (see TestCaptureRoundTripAllocations).
const captureAllocBound = 3.0

// TestCaptureRoundTripAllocations locks in the allocation-light capture
// pipeline: emitting one fixed site capture and decoding it back through
// SummarizeCapture stays under captureAllocBound allocations per packet.
func TestCaptureRoundTripAllocations(t *testing.T) {
	f := buildFixture(t)
	var buf bytes.Buffer
	var n int
	allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		var err error
		if n, err = f.camp.EmitSiteCaptureCtx(context.Background(), &buf, 1, 0, 3000, 7); err != nil {
			t.Fatal(err)
		}
		s, err := SummarizeCapture(bytes.NewReader(buf.Bytes()))
		if err != nil || s.Packets != n {
			t.Fatalf("summarized %v of %d packets: %v", s, n, err)
		}
	})
	perPkt := allocs / float64(n)
	t.Logf("%d packets, %.0f allocations, %.2f per packet", n, allocs, perPkt)
	if perPkt > captureAllocBound {
		t.Errorf("capture round trip allocates %.2f times per packet, bound %v", perPkt, captureAllocBound)
	}
}
