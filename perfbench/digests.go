package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// The pinned digests: SHA-256 of every output of each workload at the
// default seed, scale and packet cap, generated with -write-digests. A
// change that alters program output on purpose regenerates them in a
// benchmark change of its own.
//
//go:embed digests/*.json
var digestFS embed.FS

type digestFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Scale    float64           `json:"scale"`
	Packets  int               `json:"packets"`
	Digests  map[string]string `json:"digests"`
}

// pinnedDigests returns the pinned digests that apply to a run, or nil
// when none were generated for its seed, scale and packet cap.
func pinnedDigests(workload string, seed int64, scale float64, packets int) (map[string]string, error) {
	raw, err := digestFS.ReadFile("digests/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("pinned digests for %s: %w", workload, err)
	}
	if f.Seed != seed || f.Scale != scale || f.Packets != packets {
		return nil, nil
	}
	return f.Digests, nil
}

// writeDigests saves the digests a run observed.
func writeDigests(opts options, seen map[string]string) error {
	f := digestFile{Workload: opts.workload, Seed: opts.seed, Scale: opts.scale,
		Packets: opts.packets, Digests: seen}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(opts.writeDigests), 0o755); err != nil {
		return err
	}
	return os.WriteFile(opts.writeDigests, append(raw, '\n'), 0o644)
}
