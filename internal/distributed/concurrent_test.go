package distributed

import (
	"fmt"
	"sync"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/hashing"
)

// Differential pins for the one-lock coordinator: concurrent sessions
// must converge to state bit-identical to a sequential replay of the
// same batches — with the coordinator digest cache on or off — and the
// warm cached-digest apply path must not allocate.

// sessionWorkload builds per-session batches over a shared, overlapping
// stream population with skewed element multiplicities (heavy hitters
// repeat, exercising the digest cache) plus per-session private
// streams.
func sessionWorkload(sessions, batches, batchSize int) [][][]datagen.Update {
	rng := hashing.NewRNG(7)
	out := make([][][]datagen.Update, sessions)
	for s := range out {
		out[s] = make([][]datagen.Update, batches)
		for b := range out[s] {
			ups := make([]datagen.Update, batchSize)
			for i := range ups {
				u := &ups[i]
				switch rng.Uint64n(4) {
				case 0:
					u.Stream = fmt.Sprintf("private%d", s)
				case 1:
					u.Stream = "A"
				case 2:
					u.Stream = "B"
				default:
					u.Stream = fmt.Sprintf("shared%d", rng.Uint64n(8))
				}
				if rng.Uint64n(3) == 0 {
					u.Elem = rng.Uint64n(32) // heavy hitters: cache fodder
				} else {
					u.Elem = rng.Uint64n(1 << 16)
				}
				u.Delta = 1
				if rng.Uint64n(8) == 0 {
					u.Delta = -1
				}
			}
			out[s][b] = ups
		}
	}
	return out
}

// applyWorkloadSequential drives the whole workload through one
// coordinator session by session — the single-threaded reference.
func applyWorkloadSequential(t *testing.T, c *Coordinator, work [][][]datagen.Update) {
	t.Helper()
	for s, session := range work {
		site := fmt.Sprintf("site-%d", s)
		for _, batch := range session {
			if err := c.ApplyUpdates(site, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedBitIdenticalConcurrent is the concurrency differential
// pin: one fixed workload of 96 batches is sharded across 1, 4 and 16
// concurrent sessions (one Applier each, like real streaming
// connections) which, with the coordinator digest cache armed and
// ad-hoc estimates and a standing watcher racing them, must leave state
// bit-identical to the sequential reference. Counter linearity makes
// this exact: every counter is a sum of per-update contributions, so
// apply order cannot matter.
func TestShardedBitIdenticalConcurrent(t *testing.T) {
	const totalBatches = 96
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testConcurrentSessionsBitIdentical(t, sessionWorkload(shards, totalBatches/shards, 100))
		})
	}
}

func testConcurrentSessionsBitIdentical(t *testing.T, work [][][]datagen.Update) {
	ref, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	applyWorkloadSequential(t, ref, work)
	refEst, err := ref.Estimate("(A | B) - shared3", 0.2)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDigestCache(1024)

	w, err := c.Watch(WatchSpec{
		Exprs:        []string{"A & B", "shared0 | shared1"},
		EveryUpdates: 500,
		Buffer:       4, // small on purpose: drops must not corrupt state
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range w.C { // drain slowly-ish; losses are fine
		}
	}()

	var wg sync.WaitGroup
	for s := range work {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			a := c.NewApplier() // per-session, like stream.go
			site := fmt.Sprintf("site-%d", s)
			for _, batch := range work[s] {
				if err := a.ApplyUpdates(site, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// Concurrent readers: ad-hoc estimates racing the writers.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Early rounds may fail (streams not seen yet) — only
			// crashes/races are failures here.
			c.Estimate("A | B", 0.3)
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	w.Close()

	requireSameState(t, ref, c)
	got, err := c.Estimate("(A | B) - shared3", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got != refEst {
		t.Errorf("estimate diverges from sequential reference:\n got %+v\nwant %+v", got, refEst)
	}
}

// TestApplierCachedDigestAllocFree pins the warm hot path: with the
// coordinator digest cache armed, no WAL, and every element already
// cached, a session's ApplyUpdates performs zero allocations —
// coalescing, cache probes, and counter application all run in the
// Applier's reused buffers.
func TestApplierCachedDigestAllocFree(t *testing.T) {
	c, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDigestCache(4096)
	a := c.NewApplier()
	seed := make([]datagen.Update, 96)
	for i := range seed {
		stream := "A"
		if i%2 == 1 {
			stream = "B"
		}
		seed[i] = datagen.Update{Stream: stream, Elem: uint64(i % 48), Delta: 1}
	}
	// Warm: first batch computes + installs every digest, creates the
	// streams and site accounting entries.
	if err := a.ApplyUpdates("pin", seed); err != nil {
		t.Fatal(err)
	}
	// The cache is direct-mapped: two elements hashing to one slot evict
	// each other forever, and the recompute on every pass allocates by
	// design. Pin the batch to the collision-free survivors (the batch
	// any heavy-hitter steady state converges to).
	ups := seed[:0:0]
	for _, u := range seed {
		if c.dcache.Contains(u.Elem) {
			ups = append(ups, u)
		}
	}
	if len(ups) < len(seed)/2 {
		t.Fatalf("cache retained only %d of %d warm elements", len(ups), len(seed))
	}
	if err := a.ApplyUpdates("pin", ups); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := a.ApplyUpdates("pin", ups); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm cached-digest ApplyUpdates allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCoordDigestCacheMetrics: every coalesced entry is a hit or a
// miss, a warm second pass is all hits, and the counters add up.
func TestCoordDigestCacheMetrics(t *testing.T) {
	c, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDigestCache(1024)
	ups := make([]datagen.Update, 64)
	for i := range ups {
		ups[i] = datagen.Update{Stream: "A", Elem: uint64(i), Delta: 1}
	}
	if err := c.ApplyUpdates("edge", ups); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.met.digestCacheHits.Value(), c.met.digestCacheMisses.Value(); hits != 0 || misses != 64 {
		t.Fatalf("cold batch: hits=%d misses=%d, want 0/64", hits, misses)
	}
	// Direct-mapped collisions may have evicted a few elements; the warm
	// pass hits exactly the survivors and misses the rest.
	cached := uint64(0)
	for i := range ups {
		if c.dcache.Contains(ups[i].Elem) {
			cached++
		}
	}
	if err := c.ApplyUpdates("edge", ups); err != nil {
		t.Fatal(err)
	}
	hits, misses := c.met.digestCacheHits.Value(), c.met.digestCacheMisses.Value()
	if hits != cached || misses != 64+(64-cached) {
		t.Fatalf("warm batch: hits=%d misses=%d, want %d/%d", hits, misses, cached, 64+(64-cached))
	}
	if hits+misses != 128 {
		t.Fatalf("lookup accounting: %d hits + %d misses != 128 lookups", hits, misses)
	}
	// Disabled cache: no lookups counted at all.
	c2, _ := NewCoordinator(testCoins)
	c2.SetDigestCache(-1)
	if err := c2.ApplyUpdates("edge", ups); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c2.met.digestCacheHits.Value(), c2.met.digestCacheMisses.Value(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache counted lookups: hits=%d misses=%d", hits, misses)
	}
}

// TestEstimateConsistentCut: an estimate over two streams must never
// observe a batch half-applied. Writers apply batches that keep "L"
// and "R" equal (same elements both sides); a reader evaluating L - R
// under the shared state lock must always see an empty difference.
func TestEstimateConsistentCut(t *testing.T) {
	c, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	// Seed both streams so the expression compiles against live state.
	seed := []datagen.Update{{Stream: "L", Elem: 0, Delta: 1}, {Stream: "R", Elem: 0, Delta: 1}}
	if err := c.ApplyUpdates("w", seed); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a := c.NewApplier()
		e := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := []datagen.Update{
				{Stream: "L", Elem: e % 4096, Delta: 1},
				{Stream: "R", Elem: e % 4096, Delta: 1},
			}
			if err := a.ApplyUpdates("w", batch); err != nil {
				t.Error(err)
				return
			}
			e++
		}
	}()
	for i := 0; i < 300; i++ {
		est, err := c.Estimate("L - R", 0.2)
		if err != nil {
			if err == core.ErrNoObservations {
				continue // an empty difference may yield no witnesses
			}
			t.Fatal(err)
		}
		if est.Value != 0 {
			t.Fatalf("round %d: L - R estimated %v on identical streams (torn read)", i, est.Value)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkCoordApplyDigestCache measures the coordinator's raw-update
// apply path with the digest cache off and on — the cache trades the
// per-element hash bill (r first-level polynomials + r*s second-level
// bits) for one mutex-guarded probe.
func BenchmarkCoordApplyDigestCache(b *testing.B) {
	ups := make([]datagen.Update, 256)
	rng := hashing.NewRNG(3)
	for i := range ups {
		// Zipf-ish: half the volume from 64 heavy hitters.
		e := rng.Uint64n(1 << 16)
		if i%2 == 0 {
			e = rng.Uint64n(64)
		}
		ups[i] = datagen.Update{Stream: "A", Elem: e, Delta: 1}
	}
	for _, cache := range []int{-1, 8192} {
		name := "cache=off"
		if cache > 0 {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			c, err := NewCoordinator(testCoins)
			if err != nil {
				b.Fatal(err)
			}
			c.SetDigestCache(cache)
			a := c.NewApplier()
			if err := a.ApplyUpdates("bench", ups); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(ups)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.ApplyUpdates("bench", ups); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoordApplyColdStreams measures the raw-update apply path in
// the cold state the paper's uniform workloads run in: 16 streams
// interleaved within each 256-update batch, elements uniform over
// 4,194,304 so coalescing and caching find almost nothing, no digest
// cache, and the benchmark sketch shape (r=128, s=32, 8-wise), whose
// 16 stream families are far larger than L2. It reports ns/update, the
// digest bill plus the copy-major counter adds.
func BenchmarkCoordApplyColdStreams(b *testing.B) {
	const (
		streams   = 16
		batchSize = 256
		batches   = 64
	)
	cfg := core.DefaultConfig()
	cfg.SecondLevel, cfg.FirstWise = 32, 8
	coins := Coins{Config: cfg, Seed: 1, Copies: 128}
	rng := hashing.NewRNG(5)
	ring := make([][]datagen.Update, batches)
	for k := range ring {
		ring[k] = make([]datagen.Update, batchSize)
		for i := range ring[k] {
			ring[k][i] = datagen.Update{Stream: fmt.Sprintf("S%d", i%streams), Elem: rng.Uint64n(1 << 22), Delta: 1}
		}
	}
	c, err := NewCoordinator(coins)
	if err != nil {
		b.Fatal(err)
	}
	c.SetDigestCache(-1)
	a := c.NewApplier()
	for _, ups := range ring { // create every stream family before timing
		if err := a.ApplyUpdates("bench", ups); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ApplyUpdates("bench", ring[i%batches]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/update")
}
