package cdn

import (
	"fmt"
	"math"

	"anycastctx/internal/artifact"
	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// Ring names recur across every row of a telemetry table, so the codecs
// store a small name table once and index into it per row.

func appendLocation(w *artifact.Writer, l Location) {
	w.I32(int32(l.ASN))
	w.I64(int64(l.Region))
	w.F64(l.Loc.Lat)
	w.F64(l.Loc.Lon)
	w.F64(l.Users)
}

func readLocation(r *artifact.Reader) Location {
	return Location{
		ASN:    topology.ASN(r.I32()),
		Region: int(r.I64()),
		Loc:    geo.Coord{Lat: r.F64(), Lon: r.F64()},
		Users:  r.F64(),
	}
}

// validLocation reports whether a decoded location could have been
// encoded: a real region index, coordinates on the globe, and a finite
// non-negative user count.
func validLocation(l Location) bool {
	return l.Region >= 0 && l.Loc.Lat >= -90 && l.Loc.Lat <= 90 &&
		l.Loc.Lon >= -180 && l.Loc.Lon <= 180 && finiteNonNeg(l.Users)
}

// finiteNonNeg reports whether v is a finite number >= 0.
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

func appendRingTable(w *artifact.Writer, names []string) map[string]uint32 {
	ix := make(map[string]uint32, len(names))
	w.U64(uint64(len(names)))
	for i, n := range names {
		w.Str(n)
		ix[n] = uint32(i)
	}
	return ix
}

func readRingTable(r *artifact.Reader) []string {
	n := r.Count(4)
	if r.Err() != nil {
		return nil
	}
	names := make([]string, n)
	for i := range names {
		names[i] = r.Str()
	}
	return names
}

// ringNames collects the distinct ring names of rows in first-appearance
// order (rows are grouped by ring, so this is also ring order).
func ringNames(rings func(i int) string, n int) []string {
	var names []string
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		if name := rings(i); !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return names
}

// EncodeServerLogs serializes a server-side telemetry table
// deterministically (floats as raw bits, ring names deduplicated).
func EncodeServerLogs(rows []ServerLogRow) []byte {
	w := artifact.NewWriter(64 + len(rows)*60)
	names := ringNames(func(i int) string { return rows[i].Ring }, len(rows))
	ix := appendRingTable(w, names)
	w.U64(uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		appendLocation(w, r.Location)
		w.U32(ix[r.Ring])
		w.I64(int64(r.FrontEnd))
		w.I64(int64(r.PathLen))
		w.Bool(r.Direct)
		w.F64(r.MedianRTTMs)
		w.I64(int64(r.Samples))
	}
	return w.Bytes()
}

// DecodeServerLogs rebuilds a server-side telemetry table from an
// EncodeServerLogs payload, rejecting rows no measurement could produce.
func DecodeServerLogs(blob []byte) ([]ServerLogRow, error) {
	r := artifact.NewReader(blob)
	names := readRingTable(r)
	n := r.Count(58)
	if err := r.Err(); err != nil {
		return nil, err
	}
	rows := make([]ServerLogRow, n)
	for i := range rows {
		loc := readLocation(r)
		ring := int(r.U32())
		if r.Err() == nil && ring >= len(names) {
			return nil, fmt.Errorf("cdn: decode server logs: ring index %d of %d", ring, len(names))
		}
		rows[i] = ServerLogRow{
			Location:    loc,
			FrontEnd:    int(r.I64()),
			PathLen:     int(r.I64()),
			Direct:      r.Bool(),
			MedianRTTMs: r.F64(),
			Samples:     int(r.I64()),
		}
		if ring < len(names) {
			rows[i].Ring = names[ring]
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for i := range rows {
		row := &rows[i]
		if !validLocation(row.Location) || row.FrontEnd < 0 || row.PathLen < 0 || row.Samples < 0 ||
			!finiteNonNeg(row.MedianRTTMs) {
			return nil, fmt.Errorf("cdn: decode server logs: row %d invalid: %+v", i, *row)
		}
	}
	if n == 0 {
		return nil, nil
	}
	obsLogRows.Add(uint64(n))
	for i := range rows {
		obsLogRTTs.Observe(rows[i].MedianRTTMs)
	}
	return rows, nil
}

// EncodeClientRows serializes a client-side telemetry table
// deterministically.
func EncodeClientRows(rows []ClientMeasurementRow) []byte {
	w := artifact.NewWriter(64 + len(rows)*44)
	names := ringNames(func(i int) string { return rows[i].Ring }, len(rows))
	ix := appendRingTable(w, names)
	w.U64(uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		appendLocation(w, r.Location)
		w.U32(ix[r.Ring])
		w.F64(r.MedianRTTMs)
	}
	return w.Bytes()
}

// DecodeClientRows rebuilds a client-side telemetry table from an
// EncodeClientRows payload, rejecting rows no measurement could produce.
func DecodeClientRows(blob []byte) ([]ClientMeasurementRow, error) {
	r := artifact.NewReader(blob)
	names := readRingTable(r)
	n := r.Count(40)
	if err := r.Err(); err != nil {
		return nil, err
	}
	rows := make([]ClientMeasurementRow, n)
	for i := range rows {
		loc := readLocation(r)
		ring := int(r.U32())
		if r.Err() == nil && ring >= len(names) {
			return nil, fmt.Errorf("cdn: decode client rows: ring index %d of %d", ring, len(names))
		}
		rows[i] = ClientMeasurementRow{
			Location:    loc,
			MedianRTTMs: r.F64(),
		}
		if ring < len(names) {
			rows[i].Ring = names[ring]
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for i := range rows {
		if row := &rows[i]; !validLocation(row.Location) || !finiteNonNeg(row.MedianRTTMs) {
			return nil, fmt.Errorf("cdn: decode client rows: row %d invalid: %+v", i, *row)
		}
	}
	if n == 0 {
		return nil, nil
	}
	obsClientRows.Add(uint64(n))
	return rows, nil
}
