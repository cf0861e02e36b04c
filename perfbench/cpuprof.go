package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuNanos reads a runtime/pprof CPU profile (gzipped profile.proto) and
// returns the sampled CPU nanoseconds of each package. A sample counts
// toward the package of its leaf frame (flat time), except that
// standard-library frames outside the runtime count toward their nearest
// caller in this module: the math.Sin under geo.DistanceKm is geometry
// time, while allocation and collection stay with the runtime.
func cpuNanos(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		nanos int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var sm sample
			if err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					sm.locs = appendVarints(sm.locs, w, v, b)
				case 2: // values: samples, then CPU nanoseconds
					if vals := appendVarints(nil, w, v, b); len(vals) > 0 {
						sm.nanos = int64(vals[len(vals)-1])
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, sm)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: one per inlined frame, innermost first
					return protoFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := protoFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if si := funcName[fn]; si >= 0 && int(si) < len(strs) {
			return strs[si]
		}
		return ""
	}
	byPkg := map[string]int64{}
	for _, sm := range samples {
		pkg := ""
	frames:
		for _, loc := range sm.locs {
			for _, fn := range locFuncs[loc] {
				sym := name(fn)
				if pkg == "" {
					pkg = packageOf(sym) // the leaf, should no owner be found
				}
				if ownsCallees(sym) {
					pkg = packageOf(sym)
					break frames
				}
			}
		}
		if pkg == "" {
			pkg = "unknown"
		}
		byPkg[pkg] += sm.nanos
	}
	return byPkg, nil
}

// ownsCallees reports whether time in the standard-library frames a
// function calls counts as its own: true for the runtime, this module's
// packages and the benchmark itself.
func ownsCallees(sym string) bool {
	return strings.HasPrefix(sym, "anycastctx") || strings.HasPrefix(sym, "main.") ||
		packageOf(sym) == "runtime"
}

// packageOf maps a symbol to a short package label: internal packages of
// the module by their path below internal/, the module root as
// "anycastctx", the Go runtime (including internal/runtime/... and its
// unqualified assembly routines) as "runtime", and anything else by its
// import path.
func packageOf(sym string) string {
	if sym == "" {
		return "unknown"
	}
	path, rest := "", sym
	if i := strings.LastIndex(sym, "/"); i >= 0 {
		path, rest = sym[:i+1], sym[i+1:]
	}
	if j := strings.Index(rest, "."); j >= 0 {
		rest = rest[:j]
	}
	pkg := path + rest
	switch {
	case path == "" && !strings.Contains(sym, "."):
		// Assembly routines the runtime calls, such as memeqbody.
		return "runtime"
	case strings.HasPrefix(pkg, "anycastctx/internal/"):
		return strings.TrimPrefix(pkg, "anycastctx/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// protoFields walks the top-level fields of one protobuf message, passing
// each field number, wire type, and its varint value or length-delimited
// bytes to fn. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which runtime/pprof
// writes unpacked (wire type 0) for short lists and packed (wire type 2)
// for longer ones.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
