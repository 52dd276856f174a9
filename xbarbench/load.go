package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"xbarsec/api"
	"xbarsec/client"
)

// phase is the outcome of one closed-loop run: every attempted
// operation's latency (failed ones included, never dropped), the counts,
// and the first few failure messages (gate mismatches and call errors).
type phase struct {
	mu        sync.Mutex
	lats      []float64 // ms
	attempted int
	failed    int
	errs      []string
	elapsed   time.Duration // start to the last completion
	// Set by the traced run: what the load generator allocated during
	// the phase, and /v2/stats snapshots before and after it.
	allocBytes uint64
	stats      [2]api.Stats
}

const maxErrMessages = 8

func (p *phase) record(lat time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lats = append(p.lats, ms(lat))
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < maxErrMessages {
			p.errs = append(p.errs, err.Error())
		}
	}
}

// merge pools q, measured after p on another server, into p.
func (p *phase) merge(q *phase) {
	p.lats = append(p.lats, q.lats...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
	p.elapsed += q.elapsed
}

func (p *phase) succeeded() int { return p.attempted - p.failed }

// rate is completed operations per second of the phase.
func (p *phase) rate() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.succeeded()) / p.elapsed.Seconds()
}

// closedLoop runs clients goroutines; each calls op(ctx, c, i) for
// i = 0, 1, ... and sends its next request only after the previous one
// returned. A client stops once dur has elapsed (dur > 0) or after
// maxOps operations (maxOps > 0), whichever comes first.
func closedLoop(ctx context.Context, clients int, dur time.Duration, maxOps int, op workloadOp) *phase {
	p := &phase{}
	start := time.Now()
	var wg sync.WaitGroup
	ends := make([]time.Time, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[c] = start
			for i := 0; ; i++ {
				if ctx.Err() != nil || (dur > 0 && time.Since(start) >= dur) || (maxOps > 0 && i >= maxOps) {
					return
				}
				t0 := time.Now()
				err := op(ctx, c, i)
				ends[c] = time.Now()
				p.record(ends[c].Sub(t0), err)
			}
		}()
	}
	wg.Wait()
	for _, e := range ends {
		p.elapsed = max(p.elapsed, e.Sub(start))
	}
	return p
}

// percentile is the nearest-rank q-quantile of xs (q in (0, 1]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// specSeed derives a spec seed for client c's i-th request in one named
// stream of the workload seed. Streams keep warm-up, measured and
// traced requests from ever sharing a seed (and so a cache entry).
func specSeed(seed int64, stream string, c, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "xbarbench|%d|%s|%d|%d", seed, stream, c, i)
	// Keep it positive and clear of the golden seed 7.
	return int64(h.Sum64()>>2) + 1000
}

// newSDKs returns n SDK clients, each holding at most one connection to
// the server. Every request passes through a wireTracer, which records
// only requests made under a traced context.
func newSDKs(url string, n int) ([]*client.Client, error) {
	sdks := make([]*client.Client, n)
	for c := range sdks {
		rt := &wireTracer{base: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		}}
		var err error
		sdks[c], err = client.New(url, client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 150 * time.Second}))
		if err != nil {
			return nil, err
		}
	}
	return sdks, nil
}
