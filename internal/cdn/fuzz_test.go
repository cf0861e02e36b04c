package cdn

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// fuzzLocations is a handful of real locations: every ring measures
// each, so the seed payloads carry every ring name and stay small enough
// for the fuzzer to mutate quickly.
func fuzzLocations(f *testing.F) (*CDN, []Location) {
	g, c := buildWorld(f)
	return c, Locations(g, 1e9)[:8]
}

// FuzzDecodeServerLogs: any payload either fails to decode or yields at
// most one row per 58 payload bytes, each a plausible measurement, whose
// re-encoding decodes back to the same bytes — never a panic or an
// allocation the payload cannot back.
func FuzzDecodeServerLogs(f *testing.F) {
	c, locs := fuzzLocations(f)
	blob := EncodeServerLogs(c.ServerSideLogsCtx(context.Background(), locs, 5))
	bad := EncodeServerLogs([]ServerLogRow{{Ring: "R28", MedianRTTMs: math.NaN()}})
	if _, err := DecodeServerLogs(blob); err != nil {
		f.Fatalf("real server logs rejected: %v", err)
	}
	if _, err := DecodeServerLogs(bad); err == nil {
		f.Fatal("NaN RTT accepted")
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(bad)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeServerLogs(data)
		if err != nil {
			return
		}
		if len(rows)*58 > len(data) {
			t.Fatalf("%d rows from a %d-byte payload", len(rows), len(data))
		}
		for i, r := range rows {
			if !validLocation(r.Location) || r.FrontEnd < 0 || r.PathLen < 0 || r.Samples < 0 ||
				!finiteNonNeg(r.MedianRTTMs) {
				t.Fatalf("row %d accepted: %+v", i, r)
			}
		}
		enc := EncodeServerLogs(rows)
		again, err := DecodeServerLogs(enc)
		if err != nil {
			t.Fatalf("re-encoded rows fail to decode: %v", err)
		}
		if !bytes.Equal(EncodeServerLogs(again), enc) {
			t.Fatal("encode→decode→encode changed the payload")
		}
	})
}

// FuzzDecodeClientRows is FuzzDecodeServerLogs for the client-side
// table (at most one row per 40 payload bytes).
func FuzzDecodeClientRows(f *testing.F) {
	c, locs := fuzzLocations(f)
	blob := EncodeClientRows(c.ClientMeasurementsCtx(context.Background(), locs, 9))
	bad := EncodeClientRows([]ClientMeasurementRow{{Ring: "R28", MedianRTTMs: -1}})
	if _, err := DecodeClientRows(blob); err != nil {
		f.Fatalf("real client rows rejected: %v", err)
	}
	if _, err := DecodeClientRows(bad); err == nil {
		f.Fatal("negative RTT accepted")
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(bad)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeClientRows(data)
		if err != nil {
			return
		}
		if len(rows)*40 > len(data) {
			t.Fatalf("%d rows from a %d-byte payload", len(rows), len(data))
		}
		for i, r := range rows {
			if !validLocation(r.Location) || !finiteNonNeg(r.MedianRTTMs) {
				t.Fatalf("row %d accepted: %+v", i, r)
			}
		}
		enc := EncodeClientRows(rows)
		again, err := DecodeClientRows(enc)
		if err != nil {
			t.Fatalf("re-encoded rows fail to decode: %v", err)
		}
		if !bytes.Equal(EncodeClientRows(again), enc) {
			t.Fatal("encode→decode→encode changed the payload")
		}
	})
}
