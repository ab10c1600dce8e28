package main

import (
	"context"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// outcome classifies one request. Everything but ok counts as failed
// against attempted, and as missing any latency limit.
type outcome int

const (
	ok      outcome = iota
	shed            // refused by admission control (HTTP 429)
	failure         // non-2xx answer or transport error
	dropped         // never sent: the run ended with it still queued
)

// sendFunc issues operation i and reports how it ended.
type sendFunc func(ctx context.Context, i int) outcome

// loadResult is what a load generator saw. Latencies hold one entry per attempted
// operation, in seconds, +Inf for every failed one; Late holds how late the
// generator issued each operation relative to its schedule, in seconds.
type loadResult struct {
	Attempted, OK, Shed, Failures, Dropped int64
	Latencies                              []float64
	Late                                   []float64
	// Ordered holds an open loop's latencies in schedule order (failed
	// operations as +Inf), for telling a growing backlog from noise.
	Ordered []float64
	idx     []int // operation index of each latency, per worker
	Elapsed time.Duration
}

// Failed is every operation that did not end ok.
func (r loadResult) Failed() int64 { return r.Shed + r.Failures + r.Dropped }

func (r *loadResult) record(o outcome, latency time.Duration) {
	r.Attempted++
	switch o {
	case ok:
		r.OK++
		r.Latencies = append(r.Latencies, latency.Seconds())
		return
	case shed:
		r.Shed++
	case failure:
		r.Failures++
	case dropped:
		r.Dropped++
	}
	r.Latencies = append(r.Latencies, math.Inf(1))
}

func (r *loadResult) merge(o loadResult) {
	r.Attempted += o.Attempted
	r.OK += o.OK
	r.Shed += o.Shed
	r.Failures += o.Failures
	r.Dropped += o.Dropped
	r.Latencies = append(r.Latencies, o.Latencies...)
	r.Late = append(r.Late, o.Late...)
}

// clock lets tests drive the generator's schedule.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// job is one scheduled operation.
type job struct {
	i   int
	due time.Time
}

// schedule issues n operations at a fixed rate from start, handing each to
// emit when it is due, and returns how late each was issued.
func schedule(c clock, start time.Time, n int, rate float64, emit func(job)) []float64 {
	late := make([]float64, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		c.SleepUntil(due)
		late[i] = c.Now().Sub(due).Seconds()
		emit(job{i: i, due: due})
	}
	return late
}

// openLoop offers rate operations per second for dur over conns workers,
// independent of how fast they complete: each operation's latency is
// timed from when it was due, so a stall charges every operation queued
// behind it. Operations still queued grace after the schedule ends are
// dropped and count as failed.
func openLoop(ctx context.Context, rate float64, dur time.Duration, conns int, grace time.Duration, send sendFunc) loadResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	start := time.Now()
	deadline := start.Add(dur + grace)
	rctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	jobs := make(chan job, n) // sized to the number of sends: the generator never blocks
	results := make([]loadResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			for j := range jobs {
				res.idx = append(res.idx, j.i)
				if rctx.Err() != nil {
					res.record(dropped, 0)
					continue
				}
				o := send(rctx, j.i)
				res.record(o, time.Since(j.due))
			}
		}(&results[w])
	}
	late := schedule(wallClock{}, start, n, rate, func(j job) { jobs <- j })
	close(jobs)
	wg.Wait()
	total := loadResult{Late: late, Elapsed: time.Since(start), Ordered: make([]float64, n)}
	for _, r := range results {
		total.merge(r)
		for k, i := range r.idx {
			total.Ordered[i] = r.Latencies[k]
		}
	}
	return total
}

// closedLoop runs clients that each send, wait for the answer, think, and
// send again, until ctx is done or, with limit > 0, limit operations have
// been sent. Late records how far each send slipped past the end of its
// think time.
func closedLoop(ctx context.Context, clients int, think time.Duration, limit int, send sendFunc) loadResult {
	start := time.Now()
	results := make([]loadResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int, res *loadResult) {
			defer wg.Done()
			timer := time.NewTimer(think)
			defer timer.Stop()
			for i := c; limit <= 0 || i < limit; i += clients {
				t0 := time.Now()
				o := send(ctx, i)
				if ctx.Err() != nil {
					return // an answer cut short by the end of the run is not counted
				}
				res.record(o, time.Since(t0))
				due := time.Now().Add(think)
				timer.Reset(think)
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				res.Late = append(res.Late, time.Since(due).Seconds())
			}
		}(c, &results[c])
	}
	wg.Wait()
	total := loadResult{Elapsed: time.Since(start)}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

// httpSearcher sends /search requests for a fixed list of query strings
// over at most conns keep-alive connections.
type httpSearcher struct {
	base    string
	queries []string // operation i sends queries[(offset+i) % len]
	offset  int
	client  *http.Client
	tr      *tracer
	// degraded, when set, reports a 200 answer that is nonetheless a
	// failure (a coordinator answer missing shards).
	degraded func(body []byte) bool
}

func newHTTPSearcher(base string, queries []string, conns int, tr *tracer) *httpSearcher {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &httpSearcher{base: base, queries: queries, client: &http.Client{Transport: t}, tr: tr}
}

func (h *httpSearcher) send(ctx context.Context, i int) outcome {
	s := h.tr.begin("client.request", spanRef{})
	code, body, err := h.get(ctx, h.queries[(h.offset+i)%len(h.queries)], s)
	h.tr.end(s, spanRef{})
	switch {
	case err != nil:
		return failure
	case code == http.StatusTooManyRequests:
		return shed
	case code/100 != 2:
		return failure
	case h.degraded != nil && h.degraded(body):
		return failure
	}
	return ok
}

// get fetches one /search answer and returns its status and body. A
// traced request carries its span to the server.
func (h *httpSearcher) get(ctx context.Context, qs string, s spanRef) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/search?"+qs, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Accept", "application/json")
	if s.id != 0 {
		req.Header.Set(spanHeader, formatSpanHeader(s))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (h *httpSearcher) close() { h.client.CloseIdleConnections() }
