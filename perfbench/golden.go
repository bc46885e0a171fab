package main

// Golden digests: the SHA-256 of the rewrite of each corpus source in
// both instrumentation modes, as the front end produced them when the
// benchmark was defined. Rewritten bytes must stay identical, so a
// change that alters them fails every run (correct is false). Refresh
// the file only for an intended output change, with
//
//	go test -run TestGoldenDigests -update

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/instrument"
)

//go:embed golden.json
var goldenJSON []byte

// goldenModes are the instrumentation modes the digests cover.
var goldenModes = []instrument.Mode{instrument.ModeLight, instrument.ModeLoops}

// goldenDigests computes "mode/app" → hex SHA-256 of the rewrite.
func goldenDigests() (map[string]string, error) {
	out := make(map[string]string)
	for _, app := range corpus() {
		for _, m := range goldenModes {
			res, err := instrument.Rewrite(app.source, m)
			if err != nil {
				return nil, fmt.Errorf("rewrite %s (%s): %w", app.name, m, err)
			}
			sum := sha256.Sum256([]byte(res.Source))
			out[m.String()+"/"+app.name] = hex.EncodeToString(sum[:])
		}
	}
	return out, nil
}

// checkGolden compares the current rewrites with the committed digests
// and returns how many differ, naming each on standard error.
func checkGolden() (int, error) {
	var want map[string]string
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		return 0, fmt.Errorf("golden.json: %w", err)
	}
	got, err := goldenDigests()
	if err != nil {
		return 0, err
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if got[k] != want[k] {
			fmt.Fprintf(os.Stderr, "perfbench: golden digest mismatch: %s\n", k)
			bad++
		}
	}
	if len(got) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %d golden digests committed, %d sources rewritten\n", len(want), len(got))
		bad++
	}
	return bad, nil
}
