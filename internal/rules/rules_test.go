package rules

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestConditionAndRuleMatching(t *testing.T) {
	c := Condition{Feature: 0, Op: GT, Threshold: 5, Name: "via45"}
	if !c.Matches([]float64{6}) || c.Matches([]float64{5}) {
		t.Fatal("GT condition wrong")
	}
	le := Condition{Feature: 0, Op: LE, Threshold: 5}
	if !le.Matches([]float64{5}) || le.Matches([]float64{6}) {
		t.Fatal("LE condition wrong")
	}
	if !strings.Contains(c.String(), "via45 > 5") {
		t.Fatalf("condition render: %s", c.String())
	}
	r := &Rule{Conditions: []Condition{c, {Feature: 1, Op: LE, Threshold: 2}}, Class: 1}
	if !r.Matches([]float64{6, 1}) || r.Matches([]float64{6, 3}) || r.Matches([]float64{4, 1}) {
		t.Fatal("rule conjunction wrong")
	}
	if (&Rule{}).String() == "" || r.String() == "" {
		t.Fatal("empty render")
	}
	if (&Rule{}).Precision() != 0 {
		t.Fatal("zero-coverage precision")
	}
}

func TestCN2SDFindsPlantedRule(t *testing.T) {
	// Class 1 iff f0 > 10 AND f1 > 20; other features are noise.
	rng := rand.New(rand.NewSource(1))
	n := 400
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = []float64{
			rng.Float64() * 20,
			rng.Float64() * 40,
			rng.NormFloat64(),
		}
		if rows[i][0] > 10 && rows[i][1] > 20 {
			y[i] = 1
		}
	}
	d := dataset.MustNew(dataset.FromRows(rows, y).X, y, []string{"via45", "via56", "noise"})
	rs, err := CN2SD(d, 1, CN2SDConfig{MaxRules: 3, MaxConditions: 2, Thresholds: 12})
	if err != nil {
		t.Fatal(err)
	}
	top := rs[0]
	// Top rule should reference both planted features with GT conditions.
	usedGT := map[int]bool{}
	for _, c := range top.Conditions {
		if c.Op == GT {
			usedGT[c.Feature] = true
		}
	}
	if !usedGT[0] || !usedGT[1] {
		t.Fatalf("top rule misses planted features: %s", top)
	}
	if top.Precision() < 0.85 {
		t.Fatalf("top rule precision %g: %s", top.Precision(), top)
	}
	if top.WRAcc <= 0 {
		t.Fatalf("top rule WRAcc %g", top.WRAcc)
	}
}

func TestCN2SDWeightedCoveringFindsDisjunction(t *testing.T) {
	// Class 1 in two disjoint regions: f0 > 8 OR f1 > 8. Weighted covering
	// should surface both subgroups across the extracted rules.
	rng := rand.New(rand.NewSource(2))
	n := 500
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		if rows[i][0] > 8 || rows[i][1] > 8 {
			y[i] = 1
		}
	}
	d := dataset.FromRows(rows, y)
	rs, err := CN2SD(d, 1, CN2SDConfig{MaxRules: 4, MaxConditions: 1, Thresholds: 9})
	if err != nil {
		t.Fatal(err)
	}
	feats := map[int]bool{}
	for _, r := range rs {
		for _, c := range r.Conditions {
			if c.Op == GT && c.Threshold > 6 {
				feats[c.Feature] = true
			}
		}
	}
	if !feats[0] || !feats[1] {
		t.Fatalf("weighted covering should find both regions; rules:\n%v", rs)
	}
}

func TestCN2SDValidation(t *testing.T) {
	if _, err := CN2SD(dataset.FromRows(nil, nil), 1, CN2SDConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	d := dataset.FromRows([][]float64{{1}, {2}}, []float64{0, 0})
	if _, err := CN2SD(d, 1, CN2SDConfig{}); err == nil {
		t.Fatal("missing target class accepted")
	}
}

func TestRuleSetPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 10}
		if rows[i][0] > 7 {
			y[i] = 1
		}
	}
	d := dataset.FromRows(rows, y)
	rs, err := CN2SD(d, 1, CN2SDConfig{MaxRules: 2, MaxConditions: 1, Thresholds: 9})
	if err != nil {
		t.Fatal(err)
	}
	set := &RuleSet{Rules: rs, Target: 1, Default: 0}
	pred := dataset.PredictAll(d, set.Predict)
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(n) < 0.9 {
		t.Fatalf("ruleset accuracy %g", float64(correct)/float64(n))
	}
}

func TestAprioriFrequentSetsAndRules(t *testing.T) {
	txs := []Transaction{
		{"ld", "add"},
		{"ld", "add", "st"},
		{"ld", "add", "st"},
		{"ld", "st"},
		{"mul"},
	}
	freq, rules := Apriori(txs, 0.4, 0.7)
	supOf := func(items ...string) float64 {
		for _, f := range freq {
			if len(f.Items) != len(items) {
				continue
			}
			same := true
			for i := range items {
				if f.Items[i] != items[i] {
					same = false
					break
				}
			}
			if same {
				return f.Support
			}
		}
		return -1
	}
	if s := supOf("ld"); s != 0.8 {
		t.Fatalf("sup(ld)=%g", s)
	}
	if s := supOf("add", "ld"); s != 0.6 {
		t.Fatalf("sup(ld,add)=%g", s)
	}
	if s := supOf("mul"); s != -1 {
		t.Fatalf("mul should be infrequent at 0.4, got %g", s)
	}
	// Rule add => ld must exist with confidence 1.
	found := false
	for _, r := range rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0] == "add" &&
			len(r.Consequent) == 1 && r.Consequent[0] == "ld" {
			found = true
			if r.Confidence != 1 {
				t.Fatalf("conf(add=>ld)=%g", r.Confidence)
			}
			if r.Lift < 1.2 {
				t.Fatalf("lift(add=>ld)=%g", r.Lift)
			}
		}
	}
	if !found {
		t.Fatalf("rule add=>ld not mined; rules=%v", rules)
	}
	if len(rules) > 0 && rules[0].String() == "" {
		t.Fatal("rule render empty")
	}
}

func TestAprioriEmptyAndMonotone(t *testing.T) {
	f, r := Apriori(nil, 0.5, 0.5)
	if f != nil || r != nil {
		t.Fatal("empty transactions should mine nothing")
	}
	// Support anti-monotone: every superset has support <= subset.
	txs := []Transaction{
		{"a", "b", "c"}, {"a", "b"}, {"a", "c"}, {"b", "c"}, {"a", "b", "c"},
	}
	freq, _ := Apriori(txs, 0.2, 0.5)
	sup := map[string]float64{}
	for _, fs := range freq {
		sup[strings.Join(fs.Items, ",")] = fs.Support
	}
	if sup["a,b"] > sup["a"] || sup["a,b,c"] > sup["a,b"] {
		t.Fatalf("support monotonicity violated: %v", sup)
	}
}

func BenchmarkCN2SD(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 20, rng.Float64() * 40, rng.NormFloat64()}
		if rows[i][0] > 10 && rows[i][1] > 20 {
			y[i] = 1
		}
	}
	d := dataset.FromRows(rows, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CN2SD(d, 1, CN2SDConfig{MaxRules: 3, MaxConditions: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
