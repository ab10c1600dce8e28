package crawler

// The chaos suite: full crawls against the synthetic web with the seeded
// fault-injection plane (internal/faults) spliced into the transport and
// the DNS simulation. Each profile run must terminate, keep the crawl
// accounting invariant, quarantine every poisoned host it touched, and —
// under the default acceptance mix — still harvest at least 90% of the
// positive pages a fault-free crawl finds. A separate test proves that one
// seed replays to an identical result set.
//
// The suite runs at test speed (millisecond backoffs and breaker windows)
// so it stays inside plain `go test ./...`; `make chaos` re-runs it under
// -race across the seed matrix in CHAOS_SEEDS.

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/faults"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
)

// chaosSeeds returns the seed matrix: CHAOS_SEEDS="1,7,23" from the
// Makefile's chaos target, or just {1} in a plain `go test` run.
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1}
	}
	var out []int64
	for _, part := range strings.Split(env, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEEDS entry %q: %v", part, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return []int64{1}
	}
	return out
}

// seedHosts lists the hosts of the world's seed URLs; they are exempted
// from fault classes so every chaos crawl has somewhere to start.
func seedHosts(world *corpus.World) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range world.SeedURLs() {
		u, err := url.Parse(s)
		if err != nil {
			continue
		}
		if h := u.Hostname(); !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// chaosRig is one crawl's full wiring, kept so tests can inspect the
// resilience layer after the run. stats is the last phase's counters;
// phases holds every phase's.
type chaosRig struct {
	stats    Stats
	phases   []Stats
	store    *store.Store
	fetcher  *fetch.Fetcher
	resolver *dns.Resolver
}

// chaosKnobs tunes a chaos crawl; zero fields take the suite defaults.
type chaosKnobs struct {
	workers     int
	maxRequeues int
	hostRetries int // HostTracker quarantine threshold
	maxPerHost  int // politeness cap (0 = unlimited)
	// budget is each phase's page budget (0 = crawl to drain); phases
	// crawls (default 1) run back to back over one frontier and store,
	// like the engine's learning and harvesting phases.
	budget int64
	phases int
}

// runChaosCrawl drives one full crawl-to-drain over world with plane's
// faults injected (nil plane = fault-free baseline) and the whole
// resilience layer on: 3 retry attempts with millisecond backoff, per-host
// breakers, truncation degradation, and a two-server resolver with the
// plane faulting the primary.
func runChaosCrawl(t *testing.T, world *corpus.World, plane *faults.Plane, k chaosKnobs) chaosRig {
	t.Helper()
	if k.workers <= 0 {
		k.workers = 8
	}
	if k.maxRequeues <= 0 {
		k.maxRequeues = 6
	}
	if k.hostRetries <= 0 {
		k.hostRetries = 3
	}
	if k.phases <= 0 {
		k.phases = 1
	}

	transport := world.RoundTripper()
	primary := dns.Server(world.DNSServer())
	secondary := dns.Server(world.DNSServer())
	if plane != nil {
		transport = plane.Wrap(transport)
		primary = plane.WrapDNS(0, primary)
		secondary = plane.WrapDNS(1, secondary)
	}
	resolver := dns.NewResolver(dns.Config{
		Timeout:      25 * time.Millisecond,
		ServerBadFor: 5 * time.Second,
	}, primary, secondary)
	breakers := fetch.NewBreakerSet(fetch.BreakerConfig{
		FailureThreshold: 3,
		OpenFor:          40 * time.Millisecond,
	})
	f := fetch.New(fetch.Config{
		Transport: transport,
		Resolver:  resolver,
		Timeout:   100 * time.Millisecond, // per attempt; stalls cut fast
		Retry: fetch.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
		},
		Breaker:          breakers,
		DegradeTruncated: true,
	}, nil, fetch.NewHostTracker(k.hostRetries))
	st := store.New()
	fr := frontier.New(frontier.DefaultConfig())
	rig := chaosRig{store: st, fetcher: f, resolver: resolver}
	for phase := 0; phase < k.phases; phase++ {
		c := New(Config{
			Fetcher:        f,
			Frontier:       fr,
			Store:          st,
			Classify:       keywordClassifier,
			Workers:        k.workers,
			MaxPerHost:     k.maxPerHost,
			MaxTunnelDepth: 2,
			PageBudget:     k.budget,
			Focus:          SoftFocus,
			MaxRequeues:    k.maxRequeues,
		})
		if phase == 0 {
			c.Seed("ROOT/db", world.SeedURLs()...)
		}
		done := make(chan Stats, 1)
		go func() { done <- c.Run(context.Background()) }()
		select {
		case stats := <-done:
			rig.stats = stats
			rig.phases = append(rig.phases, stats)
		case <-time.After(90 * time.Second):
			t.Fatal("chaos crawl deadlocked")
		}
	}
	return rig
}

// checkAccounting asserts the crawl accounting invariant in every phase —
// each counted visit ends exactly one way: stored, duplicate or error —
// and that the store holds exactly the pages the phases report stored.
func checkAccounting(t *testing.T, rig chaosRig) {
	t.Helper()
	var stored int64
	for i, s := range rig.phases {
		if s.StoredPages+s.Duplicates+s.Errors != s.VisitedURLs {
			t.Errorf("phase %d: accounting broken: stored %d + duplicates %d + errors %d != visited %d",
				i, s.StoredPages, s.Duplicates, s.Errors, s.VisitedURLs)
		}
		stored += s.StoredPages
	}
	if rig.store.NumDocs() != int(stored) {
		t.Errorf("store/stats mismatch: %d vs %d", rig.store.NumDocs(), stored)
	}
}

func totalFaults(p *faults.Plane) int64 {
	var n int64
	for _, v := range p.Injected() {
		n += v
	}
	return n
}

// TestChaosProfiles crawls the full world once fault-free, then once per
// fault profile per seed, asserting termination, accounting, quarantine of
// every poisoned host touched, degradation of truncated bodies, retry
// activity, and — for the acceptance "default" mix — a harvest within 90%
// of the fault-free run.
func TestChaosProfiles(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	base := runChaosCrawl(t, world, nil, chaosKnobs{})
	if base.stats.Positive == 0 || base.stats.StoredPages == 0 {
		t.Fatalf("fault-free baseline collected nothing: %+v", base.stats)
	}

	mRetries := metrics.NewCounter("fetch_retries_total")
	mRetryOK := metrics.NewCounter("fetch_retry_success_total")

	for _, seed := range chaosSeeds(t) {
		for _, name := range []string{"default", "flaky", "slow", "poison"} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prof, err := faults.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				prof.Exempt = seedHosts(world)
				plane := faults.New(seed, prof)
				retriesBefore, retryOKBefore := mRetries.Value(), mRetryOK.Value()
				rig := runChaosCrawl(t, world, plane, chaosKnobs{})
				stats := rig.stats

				// The profile must actually have injected faults — unless this
				// seed happened to class none of the crawled hosts as faulty
				// (SeenHosts records only faulty-classed hosts).
				if totalFaults(plane) == 0 {
					if len(plane.SeenHosts()) == 0 {
						t.Skipf("seed %d classed no crawled host as faulty under %s", seed, name)
					}
					t.Fatalf("profile %s touched faulty hosts %v but injected nothing",
						name, plane.SeenHosts())
				}
				// Accounting invariant: every counted visit ends exactly one way.
				checkAccounting(t, rig)
				if stats.StoredPages == 0 {
					t.Fatalf("nothing collected under %s faults", name)
				}
				// The same invariant when a page budget cancels the crawl
				// while many workers still have fetches in flight, over two
				// back-to-back phases.
				budgeted := runChaosCrawl(t, world, faults.New(seed, prof),
					chaosKnobs{workers: 15, budget: 40, phases: 2})
				checkAccounting(t, budgeted)
				for i, s := range budgeted.phases {
					if s.VisitedURLs < 40 {
						t.Errorf("budgeted phase %d visited %d pages, want the full budget of 40", i, s.VisitedURLs)
					}
				}

				// Every poisoned host the crawl touched must end quarantined.
				quarantined := map[string]bool{}
				for _, h := range stats.Quarantined {
					quarantined[h] = true
				}
				for _, h := range plane.PoisonedSeen() {
					if !quarantined[h] {
						t.Errorf("poisoned host %s escaped quarantine (quarantined: %v)", h, stats.Quarantined)
					}
				}

				// Truncated bodies must be degraded, not dropped.
				if plane.Injected()[faults.KindTruncate] > 0 && stats.Degraded == 0 {
					t.Errorf("%d truncations injected but no degraded pages stored",
						plane.Injected()[faults.KindTruncate])
				}
				// A faulted primary name server must cause failovers, not errors.
				if plane.Injected()[faults.KindDNSTimeout] > 0 && rig.resolver.Stats().Failovers == 0 {
					t.Error("DNS timeouts injected but resolver never failed over")
				}
				// Transient faults must be retried, and retries must win pages.
				if name == "flaky" {
					if mRetries.Value() == retriesBefore {
						t.Error("flaky profile produced no retries")
					}
					if mRetryOK.Value() == retryOKBefore {
						t.Error("no fetch succeeded on a retry under the flaky profile")
					}
				}
				// Acceptance: the default mix costs at most 10% of the harvest.
				if name == "default" {
					if want := base.stats.Positive * 9 / 10; stats.Positive < want {
						t.Errorf("harvest degraded too far: %d positive pages, want >= %d (90%% of fault-free %d)",
							stats.Positive, want, base.stats.Positive)
					}
				}
			})
		}
	}
}

// TestChaosDeterminism replays one seed twice and requires identical result
// sets. A single worker makes the frontier pop order (and therefore the
// scheduling-dependent IP/size dedup) deterministic; the fault plane itself
// is hash-keyed, so the same seed injects the same faults at the same
// per-URL attempt indices in both runs. MaxRequeues is set high because
// WHEN a breaker-open rejection happens (relative to the breaker's
// real-time cool-down) is the one timing-dependent path — a huge cap keeps
// requeue exhaustion out of the picture so timing cannot change any URL's
// final outcome.
func TestChaosDeterminism(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	prof, err := faults.ByName("default")
	if err != nil {
		t.Fatal(err)
	}
	prof.Exempt = seedHosts(world)

	run := func() (Stats, []string) {
		rig := runChaosCrawl(t, world, faults.New(42, prof), chaosKnobs{
			workers:     1,
			maxRequeues: 1 << 20,
		})
		var urls []string
		for _, d := range rig.store.All() {
			urls = append(urls, d.URL)
		}
		sort.Strings(urls)
		return rig.stats, urls
	}

	stats1, urls1 := run()
	stats2, urls2 := run()

	if len(urls1) != len(urls2) {
		t.Fatalf("result set size diverged: %d vs %d stored URLs", len(urls1), len(urls2))
	}
	for i := range urls1 {
		if urls1[i] != urls2[i] {
			t.Fatalf("result set diverged at %d: %q vs %q", i, urls1[i], urls2[i])
		}
	}
	// Requeued is the one timing-dependent counter (see above); everything
	// else must replay exactly.
	stats1.Requeued, stats2.Requeued = 0, 0
	if fmt.Sprintf("%+v", stats1) != fmt.Sprintf("%+v", stats2) {
		t.Errorf("stats diverged:\n  run1: %+v\n  run2: %+v", stats1, stats2)
	}
}

// TestChaosFlapRecovery runs the flap profile: hosts that refuse their
// first requests must trip breakers, get their queued links requeued with
// delay rather than dropped, and — once the host recovers — be probed
// half-open and closed again, with their pages harvested.
func TestChaosFlapRecovery(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	prof, err := faults.ByName("flap")
	if err != nil {
		t.Fatal(err)
	}
	prof.Exempt = seedHosts(world)
	plane := faults.New(1, prof)

	// hostRetries is raised above FlapDownFirst so a flapping host's initial
	// refusals trip its breaker without quarantining it, and per-host
	// fetches are serialized so a host's later links reliably meet its open
	// breaker (instead of all being in flight before it trips).
	rig := runChaosCrawl(t, world, plane, chaosKnobs{hostRetries: 10, maxPerHost: 1})
	stats := rig.stats

	var flapSeen []string
	for h, c := range plane.SeenHosts() {
		if c == faults.ClassFlapping {
			flapSeen = append(flapSeen, h)
		}
	}
	if len(flapSeen) == 0 {
		t.Fatal("flap profile crawl touched no flapping hosts")
	}
	// Flapping hosts recover after FlapDownFirst refusals; none may end
	// quarantined.
	for _, q := range stats.Quarantined {
		for _, h := range flapSeen {
			if q == h {
				t.Errorf("flapping host %s was quarantined instead of recovered", h)
			}
		}
	}
	bs := rig.fetcher.Breakers().Stats()
	if bs.Opened == 0 {
		t.Error("no breaker opened despite flapping hosts")
	}
	if bs.Closed == 0 {
		t.Error("no breaker closed again: flapped hosts were never successfully re-probed")
	}
	// Breaker-open rejections must be requeued with delay, never dropped,
	// while the host is not quarantined and the requeue cap is far away.
	if bs.Rejected > 0 && stats.Requeued == 0 {
		t.Errorf("%d breaker rejections but no requeues", bs.Rejected)
	}
	if stats.StoredPages == 0 {
		t.Fatal("flap crawl collected nothing")
	}
}
