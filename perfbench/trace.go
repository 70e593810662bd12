package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one benchmark-side interval around a call into a layer. Spans
// of one request (or one paper pass) share Req; Parent is the enclosing
// span's ID, 0 for a root.
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Time
}

// tracer keeps spans in memory until the run ends. Only the goroutine
// that drives the measurement records spans. A nil *tracer records
// nothing, so untraced runs pay only the nil check.
type tracer struct {
	t0    time.Time
	last  int64 // the last span ID handed out
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.last++
	return t.last
}

func (t *tracer) add(s span) {
	if t != nil {
		t.spans = append(t.spans, s)
	}
}

// selfTime is one span name's summed self time over n spans.
type selfTime struct {
	self time.Duration
	n    int
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]selfTime {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		cov := covered(s, children[s.ID])
		e := out[s.Name]
		e.self += s.End.Sub(s.Start) - cov
		e.n++
		out[s.Name] = e
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(p.Start) {
			s = p.Start
		}
		if e.After(p.End) {
			e = p.End
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// write stores the spans as JSON lines, times in nanoseconds from the
// tracer's start.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			ID     int64  `json:"id"`
			Parent int64  `json:"parent,omitempty"`
			Req    int64  `json:"req"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.ID, s.Parent, s.Req, s.Name, int64(s.Start.Sub(t.t0)), int64(s.End.Sub(t.t0))}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// obsDelta holds the program's own obs counters and histogram
// count/sum pairs, read before and after a stretch of work.
type obsDelta map[string]int64

var (
	watchedCounters = []string{
		"serve.batches", "serve.instances_scored",
		"serve.kernel_row_cache_hits", "serve.kernel_row_cache_misses",
		"serve.throttled_429", "serve.deadline_exceeded",
		"testsel.kernel_row_evals", "testsel.refits", "testsel.tests_simulated",
		"isa.programs_simulated",
	}
	watchedHists = []string{"serve.batch_size", "serve.queue_wait_ns"}
)

func snapObs() obsDelta {
	d := obsDelta{}
	for _, n := range watchedCounters {
		d[n] = obs.GetCounter(n).Value()
	}
	for _, n := range watchedHists {
		h := obs.GetHistogram(n)
		d[n+".count"] = h.Count()
		d[n+".sum"] = h.Sum()
	}
	return d
}

func (d obsDelta) sub(before obsDelta) obsDelta {
	out := obsDelta{}
	for k, v := range d {
		out[k] = v - before[k]
	}
	return out
}

func (d obsDelta) mean(hist string) float64 {
	if d[hist+".count"] == 0 {
		return 0
	}
	return float64(d[hist+".sum"]) / float64(d[hist+".count"])
}

func memDelta(a, b runtime.MemStats) runtime.MemStats {
	return runtime.MemStats{
		TotalAlloc: b.TotalAlloc - a.TotalAlloc,
		Mallocs:    b.Mallocs - a.Mallocs,
		NumGC:      b.NumGC - a.NumGC,
	}
}
