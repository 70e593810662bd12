package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/apps/modelzoo"
	"repro/internal/model"
	"repro/internal/serve"
)

// BenchmarkClusterThroughput measures end-to-end predict throughput
// through the cluster router — admission, ring lookup, fan-out, merge,
// and one extra network hop — at 1 and 3 replicas × 1, 8, and 64
// concurrent clients against the SVC model, mirroring
// BenchmarkServeThroughput so the router's overhead is directly
// comparable (scripts/bench_ratchet.sh warns when replicas=1 costs
// more than 1.5× the direct single-node path). Like that benchmark,
// every replica runs with CacheRows: 0, so it measures the uncached
// Scorer.ScoreBatchInto path. b.N counts single-instance predict
// requests.
func BenchmarkClusterThroughput(b *testing.B) {
	trained, err := modelzoo.TrainAll(17, 96, 64)
	if err != nil {
		b.Fatal(err)
	}
	var svc modelzoo.Trained
	for _, tr := range trained {
		if tr.Kind == model.KindSVC {
			svc = tr
		}
	}
	a, err := model.Encode(svc.Model, model.Meta{Name: "svc"})
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, svc.Probes.Rows)
	for i := range bodies {
		bodies[i], _ = json.Marshal(map[string]any{"instances": [][]float64{svc.Probes.Row(i)}})
	}

	for _, replicas := range []int{1, 3} {
		replicas := replicas
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			for _, clients := range []int{1, 8, 64} {
				clients := clients
				b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
					lc, err := NewLocal(replicas,
						serve.Config{MaxBatch: 16, CacheRows: 0},
						Config{Replication: replicas, MaxInFlight: 4 * clients})
					if err != nil {
						b.Fatal(err)
					}
					defer lc.Close()
					if err := lc.LoadDirect("svc", a); err != nil {
						b.Fatal(err)
					}
					if n := lc.ProbeAll(context.Background()); n != replicas {
						b.Fatalf("probe: %d/%d healthy", n, replicas)
					}
					base, err := lc.Serve()
					if err != nil {
						b.Fatal(err)
					}
					url := base + "/predict/svc"
					client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

					var next sync.Mutex
					remaining := b.N
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							i := c
							for {
								next.Lock()
								if remaining == 0 {
									next.Unlock()
									return
								}
								remaining--
								next.Unlock()
								resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
								if err != nil {
									b.Error(err)
									return
								}
								var pr struct {
									Predictions []float64 `json:"predictions"`
								}
								if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
									b.Error(err)
								}
								resp.Body.Close()
								if resp.StatusCode != http.StatusOK {
									b.Errorf("status %d", resp.StatusCode)
									return
								}
								i++
							}
						}(c)
					}
					wg.Wait()
					b.StopTimer()
					if elapsed := b.Elapsed(); elapsed > 0 {
						b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
					}
				})
			}
		})
	}
}
