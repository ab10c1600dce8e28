package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestFailuresCountAgainstAttempted(t *testing.T) {
	// Requests 0-9 are shed, 10-19 fail; request 20 stalls the only
	// connection past the end of the run, so everything queued behind it
	// is dropped by the client.
	send := func(ctx context.Context, i int) outcome {
		switch {
		case i < 10:
			return shed
		case i < 20:
			return failure
		case i == 20:
			<-ctx.Done()
			return failure
		}
		return ok
	}
	r := openLoop(context.Background(), 1000, 100*time.Millisecond, 1, 50*time.Millisecond, send)
	if r.Attempted != 100 {
		t.Fatalf("attempted %d, want 100", r.Attempted)
	}
	if r.Shed != 10 || r.Failures != 11 || r.Dropped != 79 || r.OK != 0 {
		t.Fatalf("shed %d failures %d dropped %d ok %d", r.Shed, r.Failures, r.Dropped, r.OK)
	}
	if r.Failed() != r.Attempted {
		t.Fatalf("failed %d of %d", r.Failed(), r.Attempted)
	}
	if len(r.Latencies) != 100 {
		t.Fatalf("%d latencies for 100 attempts", len(r.Latencies))
	}
	if p50, _ := percentile(r.Latencies, 0.5); !math.IsInf(p50, 1) {
		t.Fatalf("median of all-failed requests reads %v, want +Inf", p50)
	}
}

func TestOpenLoopTimesFromSchedule(t *testing.T) {
	// One connection; the first request stalls 30ms. Requests due during
	// the stall must carry the wait in their latency.
	var calls atomic.Int64
	send := func(ctx context.Context, i int) outcome {
		calls.Add(1)
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return ok
	}
	r := openLoop(context.Background(), 1000, 40*time.Millisecond, 1, time.Second, send)
	if r.OK != 40 || calls.Load() != 40 {
		t.Fatalf("ok %d calls %d, want 40", r.OK, calls.Load())
	}
	slow := 0
	for _, l := range r.Latencies {
		if l >= 0.010 {
			slow++
		}
	}
	// Requests due at 1..19ms wait at least 11ms behind the stall.
	if slow < 20 {
		t.Fatalf("only %d requests charged with the stall: %v", slow, r.Latencies)
	}
}

// fakeClock oversleeps the listed due times by a fixed slip.
type fakeClock struct {
	now  time.Time
	slip map[int]time.Duration
	n    int
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(c.slip[c.n])
	c.n++
}

func TestScheduleLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start, slip: map[int]time.Duration{3: 5 * time.Millisecond}}
	var dues []time.Time
	late := schedule(c, start, 6, 1000, func(j job) { dues = append(dues, j.due) })
	// Op 3 is issued 5ms late; ops 4 and 5 were due 1ms and 2ms after it,
	// so the generator is still 4ms and 3ms behind for them.
	want := []float64{0, 0, 0, 0.005, 0.004, 0.003}
	for i := range want {
		if d := late[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("late = %v, want %v", late, want)
		}
		if wantDue := start.Add(time.Duration(i) * time.Millisecond); !dues[i].Equal(wantDue) {
			t.Fatalf("op %d due %v, want %v: lateness must not shift the schedule", i, dues[i], wantDue)
		}
	}
}
