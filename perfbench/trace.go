package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/expr"
	"setsketch/internal/ingest"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// The traced run replays the same seeded batches in this process
// through each layer's public entry points, with a span around each
// call, after the live server has been stopped. Spans stay in memory;
// a span's self time is its duration minus its children's.

type span struct {
	name       string
	parent     int // index of the causing span, -1 for a root
	start, end time.Time
}

// tracer records spans when on; off, begin and end cost a branch, so
// the same loop gives the untraced baseline for the overhead figure.
type tracer struct {
	on    bool
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = time.Now()
	}
}

// spanStats aggregates one span name.
type spanStats struct {
	calls       int
	total, self time.Duration
	durs        []time.Duration
}

func (t *tracer) stats() map[string]*spanStats {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end.Sub(s.start)
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end.Sub(s.start)
		st.calls++
		st.total += d
		st.self += d - children[i]
		st.durs = append(st.durs, d)
	}
	return out
}

// traceView is a continuous view over the workloads' first two streams;
// registering it puts the continuous-query engine on the apply path.
const traceView = "CREATE VIEW uniq AS A | B WINDOW 5m SLIDE 1m EMIT ISTREAM"

// Replay sizes: enough batches for stable per-batch means, few enough
// that fsync-bound replays stay within a few seconds.
const (
	replayBatches    = 600
	replayBatchesWAL = 200
	queryTraceRounds = 20
	untracedRepeats  = 2    // untraced layer passes averaged for the overhead baseline
	traceDigestCache = 8192 // the coordinator's default cache size
)

// Span names: the public entry point each span wraps.
const (
	spanBatch         = "batch"
	spanLookup        = "ingest.DigestCache.Lookup"
	spanDigestBatch   = "core.Family.DigestBatch"
	spanInstall       = "ingest.DigestCache.Install"
	spanAppend        = "wal.Log.Append"
	spanSync          = "wal.Log.Sync"
	spanUpdateDigest  = "core.Family.UpdateDigest"
	spanUpdateBatch   = "core.Family.UpdateBatchDigest"
	spanApply         = "distributed.Applier.ApplyUpdates"
	spanDigestUpdates = "wal.DigestUpdates"
	spanParse         = "expr.Parse"
	spanCompile       = "core.CompileQuery"
	spanQueryEstimate = "core.Query.Estimate"
	spanCoordEstimate = "distributed.Coordinator.Estimate"
)

// traced is what the in-process replay measured.
type traced struct {
	batches, updates int
	kept, misses     int // coalesced entries, digest-cache misses
	layers           map[string]*spanStats
	apply            time.Duration // Applier.ApplyUpdates, no view
	applyView        time.Duration // same with traceView registered
	digestUpdates    time.Duration
	batchApply       time.Duration // UpdateBatchDigest over the same entries
	batchApplied     int
	replay           time.Duration
	replayUpdates    uint64
	queries          map[string]*spanStats
	tracedWall       time.Duration
	untracedWall     time.Duration
	counterBytes     float64
	l2Bytes          float64
}

// replaySet interleaves the sessions' first batches in send order.
func replaySet(w workload, rings []*ring) ([][]datagen.Update, []string) {
	n := replayBatches
	if w.wal {
		n = replayBatchesWAL
	}
	var out [][]datagen.Update
	var sites []string
	for k := 0; len(out) < n; k++ {
		for i, r := range rings {
			out = append(out, r.batch(k))
			sites = append(sites, "site-"+strconv.Itoa(i))
		}
	}
	return out, sites
}

func tracedReplay(cfg config, rings []*ring) (*traced, error) {
	w := cfg.w
	batches, sites := replaySet(w, rings)
	tr := &traced{batches: len(batches)}
	for _, b := range batches {
		tr.updates += len(b)
	}
	dirN := 0
	walDir := func() string {
		if !w.wal {
			return ""
		}
		dirN++
		return filepath.Join(cfg.work, "trace-wal-"+strconv.Itoa(dirN))
	}

	// Layer pass: untraced, traced, untraced; each on fresh state.
	var untraced time.Duration
	for i := 0; i < untracedRepeats+1; i++ {
		t := &tracer{on: i == 1}
		dir := walDir()
		quiet()
		st, wall, err := layerPass(t, w, batches, sites, dir)
		if err != nil {
			return nil, err
		}
		if t.on {
			tr.tracedWall = wall
			tr.layers = t.stats()
			tr.kept, tr.misses = st.kept, st.misses
			if dir != "" {
				if tr.replay, tr.replayUpdates, err = replayPass(dir); err != nil {
					return nil, err
				}
			}
		} else {
			untraced += wall
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	tr.untracedWall = untraced / untracedRepeats

	// For comparison with the layer pass: the uncached digest path, and
	// the batch counter kernel the server does not use on this path.
	fam, err := coins().NewFamily()
	if err != nil {
		return nil, err
	}
	if err := comparePass(tr, w, batches, fam); err != nil {
		return nil, err
	}

	// The whole apply path, and the query layers over its state.
	quiet()
	coord, apply, err := applierPass(w, batches, sites, walDir(), false)
	if err != nil {
		return nil, err
	}
	tr.apply = apply
	if tr.queries, err = queryPass(w, coord); err != nil {
		return nil, err
	}
	if _, tr.applyView, err = applierPass(w, batches, sites, walDir(), true); err != nil {
		return nil, err
	}
	tr.counterBytes = float64(len(w.streams) * fam.MemoryBytes())
	tr.l2Bytes = l2Bytes()
	return tr, nil
}

// comparePass digests each batch through wal.DigestUpdates, the
// uncached path, and applies the entries with the batch counter kernel
// UpdateBatchDigest, one call per stream.
func comparePass(tr *traced, w workload, batches [][]datagen.Update, fam *core.Family) error {
	fams := make(map[string]*core.Family, len(w.streams))
	for _, s := range w.streams {
		f, err := coins().NewFamily()
		if err != nil {
			return err
		}
		fams[s] = f
	}
	type group struct {
		ds     []core.Digest
		deltas []int64
	}
	groups := make(map[string]*group, len(w.streams))
	for _, s := range w.streams {
		groups[s] = &group{}
	}
	t := &tracer{on: true}
	for _, b := range batches {
		sp := t.begin(spanDigestUpdates, -1)
		entries := wal.DigestUpdates(fam, b)
		t.end(sp)
		tr.batchApplied += len(entries)
		for _, g := range groups {
			g.ds, g.deltas = g.ds[:0], g.deltas[:0]
		}
		for i := range entries {
			g := groups[entries[i].Stream]
			g.ds = append(g.ds, entries[i].Digest)
			g.deltas = append(g.deltas, entries[i].Delta)
		}
		sp = t.begin(spanUpdateBatch, -1)
		for _, s := range w.streams {
			if g := groups[s]; len(g.ds) > 0 {
				fams[s].UpdateBatchDigest(g.ds, g.deltas)
			}
		}
		t.end(sp)
	}
	st := t.stats()
	tr.digestUpdates, tr.batchApply = st[spanDigestUpdates].total, st[spanUpdateBatch].total
	return nil
}

type layerCounts struct{ kept, misses int }

// layerPass mirrors the coordinator's per-batch apply path from public
// entry points: coalesce, digest-cache lookup, batch digest of the
// misses, cache install, WAL append and sync, and the per-entry counter
// apply of Coordinator.applyDigestsLocked.
func layerPass(t *tracer, w workload, batches [][]datagen.Update, sites []string, walDir string) (layerCounts, time.Duration, error) {
	var lc layerCounts
	cs := coins()
	fams := make(map[string]*core.Family, len(w.streams))
	for _, s := range w.streams {
		f, err := cs.NewFamily()
		if err != nil {
			return lc, 0, err
		}
		fams[s] = f
	}
	scratch, err := cs.NewFamily()
	if err != nil {
		return lc, 0, err
	}
	cache := ingest.NewDigestCache(traceDigestCache, cs.Seed, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
	var log *wal.Log
	if walDir != "" {
		// SyncNever plus an explicit Sync per batch is SyncAlways with
		// the fsync timed on its own.
		log, err = wal.Open(walDir, wal.Options{Config: cs.Config, Seed: cs.Seed, Copies: cs.Copies, Sync: wal.SyncNever})
		if err != nil {
			return lc, 0, err
		}
		defer log.Close()
	}
	idx := make(map[pair]int, batchSize)
	var entries []wal.DigestUpdate
	var elems []uint64
	var missIdx []int
	start := time.Now()
	for bi, ups := range batches {
		root := t.begin(spanBatch, -1)
		clear(idx)
		entries = entries[:0]
		for _, u := range ups {
			k := pair{u.Stream, u.Elem}
			if i, ok := idx[k]; ok {
				entries[i].Delta += u.Delta
				continue
			}
			idx[k] = len(entries)
			entries = append(entries, wal.DigestUpdate{Stream: u.Stream, Elem: u.Elem, Delta: u.Delta})
		}
		kept := entries[:0]
		for i := range entries {
			if entries[i].Delta != 0 {
				kept = append(kept, entries[i])
			}
		}
		lc.kept += len(kept)
		elems, missIdx = elems[:0], missIdx[:0]
		sp := t.begin(spanLookup, root)
		for i := range kept {
			if d, ok := cache.Lookup(kept[i].Elem); ok {
				kept[i].Digest = d
			} else {
				elems = append(elems, kept[i].Elem)
				missIdx = append(missIdx, i)
			}
		}
		t.end(sp)
		lc.misses += len(elems)
		if len(elems) > 0 {
			sp = t.begin(spanDigestBatch, root)
			md := scratch.DigestBatch(elems)
			t.end(sp)
			for j, i := range missIdx {
				kept[i].Digest = md[j]
			}
			sp = t.begin(spanInstall, root)
			for j, i := range missIdx {
				cache.Install(kept[i].Elem, md[j])
			}
			t.end(sp)
		}
		if log != nil {
			rec := &wal.Record{Type: wal.RecDigests, Site: sites[bi], Count: uint64(len(ups)), Digests: kept}
			sp = t.begin(spanAppend, root)
			_, err := log.Append(rec)
			t.end(sp)
			if err != nil {
				return lc, 0, err
			}
			sp = t.begin(spanSync, root)
			err = log.Sync()
			t.end(sp)
			if err != nil {
				return lc, 0, err
			}
		}
		sp = t.begin(spanUpdateDigest, root)
		for i := range kept {
			fams[kept[i].Stream].UpdateDigest(kept[i].Digest, kept[i].Delta)
		}
		t.end(sp)
		t.end(root)
	}
	return lc, time.Since(start), nil
}

// replayPass reopens a WAL the layer pass wrote and replays it into
// fresh families, as recovery does.
func replayPass(dir string) (time.Duration, uint64, error) {
	cs := coins()
	log, err := wal.Open(dir, wal.Options{Config: cs.Config, Seed: cs.Seed, Copies: cs.Copies, Sync: wal.SyncNever})
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	fams := make(map[string]*core.Family)
	t0 := time.Now()
	stats, err := log.Replay(1, func(rec *wal.Record) error {
		for _, d := range rec.Digests {
			f := fams[d.Stream]
			if f == nil {
				if f, err = cs.NewFamily(); err != nil {
					return err
				}
				fams[d.Stream] = f
			}
			f.UpdateDigest(d.Digest, d.Delta)
		}
		return nil
	})
	return time.Since(t0), stats.Updates, err
}

// applierPass applies the batches through the coordinator's own
// per-session Appliers, with the server's digest cache and WAL
// settings, optionally with the continuous view registered.
func applierPass(w workload, batches [][]datagen.Update, sites []string, walDir string, view bool) (*distributed.Coordinator, time.Duration, error) {
	cs := coins()
	c, err := distributed.NewCoordinator(cs)
	if err != nil {
		return nil, 0, err
	}
	c.SetDigestCache(0)
	if walDir != "" {
		log, err := wal.Open(walDir, wal.Options{Config: cs.Config, Seed: cs.Seed, Copies: cs.Copies, Sync: wal.SyncAlways})
		if err != nil {
			return nil, 0, err
		}
		defer func() {
			log.Close()
			os.RemoveAll(walDir)
		}()
		c.AttachWAL(log)
	}
	if view {
		if _, err := c.CreateView(traceView); err != nil {
			return nil, 0, err
		}
	}
	apps := make(map[string]*distributed.Applier)
	t := &tracer{on: true}
	for i, b := range batches {
		a := apps[sites[i]]
		if a == nil {
			a = c.NewApplier()
			apps[sites[i]] = a
		}
		sp := t.begin(spanApply, -1)
		err := a.ApplyUpdates(sites[i], b)
		t.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	return c, t.stats()[spanApply].total, nil
}

// queryPass times the query list through the parse, compile and
// estimate entry points, and through the coordinator's own Estimate.
func queryPass(w workload, c *distributed.Coordinator) (map[string]*spanStats, error) {
	fams := make(map[string]*core.Family, len(w.streams))
	for _, s := range w.streams {
		if f := c.Family(s); f != nil {
			fams[s] = f
		}
	}
	opts := core.DefaultEstimateOptions()
	t := &tracer{on: true}
	for r := 0; r < queryTraceRounds; r++ {
		for _, q := range queryList {
			sp := t.begin(spanParse, -1)
			node, err := expr.Parse(q)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin(spanCompile, -1)
			cq, err := core.CompileQuery(node)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin(spanQueryEstimate, -1)
			_, err = cq.Estimate(fams, eps, true, opts)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin(spanCoordEstimate, -1)
			_, err = c.Estimate(q, eps)
			t.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	return t.stats(), nil
}

// l2Bytes reads the per-core L2 size from sysfs, falling back to 2 MiB.
func l2Bytes() float64 {
	const fallback = 2 << 20
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size")
	if err != nil {
		return fallback
	}
	s := strings.TrimSpace(string(b))
	mult := 1.0
	if v, ok := strings.CutSuffix(s, "K"); ok {
		s, mult = v, 1<<10
	} else if v, ok := strings.CutSuffix(s, "M"); ok {
		s, mult = v, 1<<20
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return fallback
	}
	return v * mult
}
