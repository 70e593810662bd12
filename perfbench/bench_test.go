package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeWorkloads runs every workload of BENCHMARK.json at smoke
// size, untraced and traced, and checks that each prints every metric
// BENCHMARK.json names, with its unit, and nothing else.
func TestSmokeWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(opts{workload: wl.Name, seed: 3, seconds: 1, trace: trace, smoke: true,
				traceDir: t.TempDir(), out: &out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, trace, err, out.String())
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", wl.Name, trace, res.Correct, res.Attempted, out.String())
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
		}
	}
}

// runCheckPhase sets up a workload's server with prepare applied to the
// set-up and runs one phase of traffic that is long enough to include
// many hot swaps on serve-refit.
func runCheckPhase(t *testing.T, name string, prepare func(*servingEnv)) (*servingEnv, *phaseResult) {
	t.Helper()
	env, err := setupServing(workloads[name], 5)
	if err != nil {
		t.Fatal(err)
	}
	prepare(env)
	rng := rand.New(rand.NewSource(5))
	res, err := env.run(&phase{name: "check", rate: 500, due: schedule(rng, 500, 400), rng: rng})
	env.srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if env.tr.refit && len(res.loadTimes) < refitVersions {
		t.Fatalf("%s: %d hot swaps during the check phase, want at least %d", name, len(res.loadTimes), refitVersions)
	}
	return env, res
}

// TestCheckerCatchesFlippedPrediction shows the serving output check is
// not vacuous on either workload: after one expected prediction is
// flipped, exactly the responses that carry it are reported wrong.
func TestCheckerCatchesFlippedPrediction(t *testing.T) {
	for _, name := range workloadNames() {
		env, res := runCheckPhase(t, name, func(*servingEnv) {})
		want := env.reference(res)
		if bad, first := env.check(res, want); bad != 0 {
			t.Fatalf("%s: %d of %d ok responses wrong before flipping: %s", name, bad, res.ok, first)
		}
		const i = 17
		if res.reqs[i].status != http.StatusOK {
			t.Fatalf("%s: request %d got status %d", name, i, res.reqs[i].status)
		}
		// Flip request i's row in every version's reference, so no
		// version can still match.
		row, carriers := i, 1
		if env.tr.refit {
			row, carriers = res.reqs[i].hot, 0
			for j := range res.reqs {
				if res.reqs[j].status == http.StatusOK && res.reqs[j].hot == row {
					carriers++
				}
			}
		}
		for v := range want {
			want[v][row] = -want[v][row]
		}
		if bad, _ := env.check(res, want); bad != carriers {
			t.Fatalf("%s: flipped one expected prediction: checker reported %d wrong, want %d", name, bad, carriers)
		}
	}
}

// TestCheckerCatchesSwapThatDoesNothing shows the serve-refit check
// tells the versions apart: when every hot swap loads the first version
// again, so that the server keeps serving it, each response given while
// that version could not have been live is reported wrong.
func TestCheckerCatchesSwapThatDoesNothing(t *testing.T) {
	env, res := runCheckPhase(t, "serve-refit", func(env *servingEnv) {
		for v := range env.versions {
			env.versions[v] = env.versions[0]
		}
	})
	stale := 0
	for i := range res.reqs {
		r := &res.reqs[i]
		if r.status != http.StatusOK {
			continue
		}
		// Version 0 is among the accepted ones when a multiple of
		// refitVersions lies between vFrom and vTo+1.
		if (r.vFrom+refitVersions-1)/refitVersions*refitVersions > r.vTo+1 {
			stale++
		}
	}
	if stale < res.ok/2 {
		t.Fatalf("only %d of %d ok responses were served when version 0 could not be live", stale, res.ok)
	}
	if bad, _ := env.check(res, env.reference(res)); bad != stale {
		t.Fatalf("the server never swapped: checker reported %d wrong, want %d", bad, stale)
	}
}
