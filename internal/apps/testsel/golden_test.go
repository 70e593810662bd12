package testsel

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The Figure 7 golden pins the full Result — headline numbers and both
// coverage curves — for the paper configuration at six seeds and for the
// kernel and detector ablations. A change to the spectrum kernel, the
// one-class solver or the selection loop that moves any kernel value by
// one ulp changes an accept/reject decision somewhere in these runs and
// shows up here as a byte diff. Regenerate only when a figure change is
// an intended, reviewed decision:
//
//	go test ./internal/apps/testsel -run TestFig7Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fig7_golden.txt from current code")

var goldenPath = filepath.Join("testdata", "fig7_golden.txt")

type goldenCase struct {
	name string
	cfg  Config
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, goldenCase{fmt.Sprintf("seed%d", seed), Config{Seed: seed, MaxTests: 800}})
	}
	return append(cases,
		goldenCase{"ngram1", Config{Seed: 1, MaxTests: 400, NGram: 1}},
		goldenCase{"ngram3", Config{Seed: 1, MaxTests: 400, NGram: 3}},
		goldenCase{"plain", Config{Seed: 1, MaxTests: 400, PlainTokens: true}},
		goldenCase{"lambda0.6", Config{Seed: 1, MaxTests: 400, Lambda: 0.6}},
		goldenCase{"nu0.05", Config{Seed: 1, MaxTests: 400, Nu: 0.05}},
		goldenCase{"nu0.2", Config{Seed: 1, MaxTests: 400, Nu: 0.2}},
	)
}

func TestFig7Golden(t *testing.T) {
	var got bytes.Buffer
	for _, g := range goldenCases() {
		res, err := Run(g.cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		// *res prints every field; res would print the String summary.
		fmt.Fprintf(&got, "%s: %+v\n", g.name, *res)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, got.Len())
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("Figure 7 result differs from %s at line %d:\n got: %.300s\nwant: %.300s\n"+
				"If the change is intentional, re-baseline with -update-golden.", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("Figure 7 result has %d lines, %s has %d", len(gl), goldenPath, len(wl))
}
