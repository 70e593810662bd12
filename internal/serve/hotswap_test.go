package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/linear"
	"repro/internal/model"
)

// TestHotSwapRestartsOnLiveVersion races Load against concurrent
// multi-row predicts. A request whose model is replaced between lookup
// and enqueue restarts on the version now live: while the server is not
// draining no request is refused with 503, and every response is exactly
// one version's predictions, never a mix. Three versions keep a stale
// answer distinguishable from the next version's.
func TestHotSwapRestartsOnLiveVersion(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {0, 1, 0}, {-1, 4, 2}, {3, 0, 1}, {2, 2, 2}, {5, -1, 0}}
	versions := make([]*model.Artifact, 3)
	want := make([][]float64, len(versions))
	for v := range versions {
		m := &linear.Regression{W: []float64{1, -2, 0.5}, B: float64(10 * v)}
		a, err := model.Encode(m, model.Meta{Name: "swap", Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		versions[v] = a
		for _, x := range rows {
			want[v] = append(want[v], m.Predict(x))
		}
	}

	s := New(Config{MaxBatch: 4})
	defer s.Close()
	if err := s.Load("", versions[0]); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := predictVia(h, "swap", "", rows)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d during hot-swap: %s", rec.Code, rec.Body)
					return
				}
				var pr predictResponse
				if err := json.NewDecoder(rec.Body).Decode(&pr); err != nil {
					errs <- err
					return
				}
				if !slices.ContainsFunc(want, func(w []float64) bool { return slices.Equal(w, pr.Predictions) }) {
					errs <- fmt.Errorf("predictions %v match no single version", pr.Predictions)
					return
				}
			}
		}()
	}
	for i := 1; i <= 300; i++ {
		if err := s.Load("", versions[i%len(versions)]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
