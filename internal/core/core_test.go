package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/validate"
)

func TestRunKDLoop(t *testing.T) {
	calls := 0
	res, err := RunKDLoop(5, func(it int) ([]string, bool, error) {
		calls++
		return []string{"finding"}, it == 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 || calls != 3 {
		t.Fatalf("iterations %d calls %d", res.Iterations, calls)
	}
	if len(res.Findings) != 3 || res.Findings[0][0] != "finding" {
		t.Fatal("findings not recorded")
	}
}

func TestRunKDLoopError(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := RunKDLoop(3, func(int) ([]string, bool, error) {
		return nil, false, wantErr
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
	// maxIters <= 0 still runs once.
	res, err := RunKDLoop(0, func(int) ([]string, bool, error) { return nil, false, nil })
	if err != nil || res.Iterations != 1 {
		t.Fatal("zero maxIters should clamp to one iteration")
	}
}

func TestUsageCheck(t *testing.T) {
	ok := UsageCheck{true, true, true, true}
	if !ok.Suitable() {
		t.Fatal("all-yes should be suitable")
	}
	bad := UsageCheck{NoGuaranteeNeeded: false, DataAvailable: true, AddsValue: true, NoExtraBurden: true}
	if bad.Suitable() {
		t.Fatal("guarantee-demanding formulation must be unsuitable")
	}
	if !strings.Contains(bad.String(), "NO") {
		t.Fatalf("render: %s", bad.String())
	}
}

func TestFiveRegressorsAllFitFriedman(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := dataset.Friedman1(rng, 150, 8, 0.5)
	test := dataset.Friedman1(rng, 150, 8, 0.5)
	for _, nr := range FiveRegressors() {
		m, err := nr.Fit(train)
		if err != nil {
			t.Fatalf("%s: %v", nr.Name, err)
		}
		r2 := validate.R2(dataset.PredictAll(test, m.Predict), test.Y)
		if r2 < 0.2 {
			t.Fatalf("%s: R2=%g too low", nr.Name, r2)
		}
	}
}
