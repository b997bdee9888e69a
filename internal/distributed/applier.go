package distributed

// The per-session apply path for raw update batches. Each streaming
// session owns one Applier, so the digest scratch family and the
// coalesce buffers are private to the connection — two sessions
// hashing batches concurrently never serialize on scratch. The only
// cross-session structure on the digest path is the optional
// coordinator digest cache (SetDigestCache), probed and refilled in
// two short critical sections per batch under dmu; the state lock is
// taken only for the WAL append and the counter adds.

import (
	"fmt"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/ingest"
	"setsketch/internal/wal"
)

// defaultCoordDigestCache is the default -digest-cache capacity for
// the coordinator's raw-update path (mirrors the ingest engine's
// default).
const defaultCoordDigestCache = 8192

// SetDigestCache arms the coordinator-side digest cache on the raw
// update path with at least n entries (rounded up to a power of two);
// n == 0 selects the default 8192, n < 0 disables the cache. On the
// skewed central workloads the paper evaluates, the heavy hitters
// dominating the update volume then replay cached digests instead of
// re-hashing every batch (coord_digest_cache_hits_total). Call it
// after SetObservability — the cache binds the coord_digest_cache_*
// counters at creation — and before the coordinator serves traffic. A
// no-op for digest-unpackable coin shapes.
//
//sketchvet:wal-exempt pre-traffic setup: wires a derived cache, mutates no recovered state
func (c *Coordinator) SetDigestCache(n int) {
	if n == 0 {
		n = defaultCoordDigestCache
	}
	if n < 0 || !c.coins.Config.DigestPackable() {
		c.dcache = nil
		return
	}
	c.dcache = ingest.NewDigestCache(n, c.coins.Seed,
		c.met.digestCacheHits, c.met.digestCacheMisses, c.met.digestCacheEvictions)
}

// digKey identifies an update target within one batch.
type digKey struct {
	stream string
	elem   uint64
}

// Applier applies raw update batches for one session. It owns the
// digest-evaluation scratch family and the coalesce/routing buffers
// its ApplyUpdates reuses batch to batch, making the warm cached-digest
// path allocation-free. An Applier is not safe for concurrent use;
// each session (or goroutine) holds its own, and all Appliers of one
// coordinator share its state, WAL, and digest cache.
type Applier struct {
	c *Coordinator

	scratch *core.Family // digest-evaluation family, built on first miss
	idx     map[digKey]int
	entries []wal.DigestUpdate
	elems   []uint64 // cache-miss elements, aligned with missIdx
	missIdx []int
}

// NewApplier returns a fresh per-session applier. Sessions call this
// once at hello; one-off callers can use Coordinator.ApplyUpdates,
// which borrows from an internal pool.
func (c *Coordinator) NewApplier() *Applier {
	return &Applier{c: c, idx: make(map[digKey]int, 64)}
}

// ApplyUpdates applies raw stream updates directly to the
// coordinator's synopses — the server side of a msgUpdateBatch
// streaming session, where thin clients forward updates for the
// coordinator to sketch centrally instead of sketching locally and
// shipping deltas. The hash bill is paid outside every lock (served
// from the coordinator digest cache when armed); the WAL append and
// the counter adds happen under the state lock (append-before-apply,
// log order is apply order).
//
//sketchvet:wal-handler
func (a *Applier) ApplyUpdates(site string, ups []datagen.Update) error {
	if len(ups) == 0 {
		return nil
	}
	c := a.c
	packable := c.coins.Config.DigestPackable()
	var entries []wal.DigestUpdate
	if packable {
		entries = a.digests(ups)
	}
	var rec *wal.Record
	if c.wlog != nil {
		rec = &wal.Record{Type: wal.RecUpdates, Site: site, Count: uint64(len(ups))}
		if packable {
			rec.Type = wal.RecDigests
			rec.Digests = entries
		} else {
			rec.Updates = ups
		}
	}
	c.mu.Lock()
	total, err := c.applyBatchLocked(rec, site, uint64(len(ups)), ups, entries, packable)
	c.mu.Unlock()
	if err != nil {
		return err // not logged or not applied: not acked
	}
	c.met.rawBatches.Inc()
	c.met.rawUpdates.Add(uint64(len(ups)))
	c.evalDue(total)
	return nil
}

// digests coalesces one raw batch down to one net update per (stream,
// element), drops exact cancellations (linearity: a net-zero update is
// a no-op on every counter), and resolves each survivor's packed
// digest — from the coordinator's shared cache when armed, batch-
// computing only the misses on the session's own scratch family. The
// returned entries alias the applier's reusable buffer and are valid
// until the next call; digests themselves are immutable (cache hits
// are shared, misses are freshly allocated). The entries keep their
// first-appearance order, streams interleaved; applyDigestsLocked
// groups them by stream under the state lock. The buffers are the
// session's own, so the warm full-hit path allocates nothing.
func (a *Applier) digests(ups []datagen.Update) []wal.DigestUpdate {
	c := a.c
	clear(a.idx)
	entries := a.entries[:0]
	for _, u := range ups {
		k := digKey{u.Stream, u.Elem}
		if i, ok := a.idx[k]; ok {
			entries[i].Delta += u.Delta
			continue
		}
		a.idx[k] = len(entries)
		entries = append(entries, wal.DigestUpdate{Stream: u.Stream, Elem: u.Elem, Delta: u.Delta})
	}
	a.entries = entries
	kept := entries[:0]
	for i := range entries {
		if entries[i].Delta != 0 {
			kept = append(kept, entries[i])
		}
	}
	a.elems = a.elems[:0]
	a.missIdx = a.missIdx[:0]
	if c.dcache != nil {
		c.dmu.Lock()
		for i := range kept {
			if d, ok := c.dcache.Lookup(kept[i].Elem); ok {
				kept[i].Digest = d
			} else {
				a.elems = append(a.elems, kept[i].Elem)
				a.missIdx = append(a.missIdx, i)
			}
		}
		c.dmu.Unlock()
	} else {
		for i := range kept {
			a.elems = append(a.elems, kept[i].Elem)
			a.missIdx = append(a.missIdx, i)
		}
	}
	if len(a.elems) > 0 {
		if a.scratch == nil {
			a.scratch, _ = c.coins.NewFamily() // coins validated at construction
		}
		md := a.scratch.DigestBatch(a.elems)
		for j, i := range a.missIdx {
			kept[i].Digest = md[j]
		}
		if c.dcache != nil {
			c.dmu.Lock()
			for j, i := range a.missIdx {
				c.dcache.Install(kept[i].Elem, md[j])
			}
			c.dmu.Unlock()
		}
	}
	return kept
}

// applyBatchLocked logs and applies one raw update batch: the WAL
// append first (append-before-apply: an acked batch is always
// recoverable), then the counter adds and view observes — the
// coalesced digest entries when packable, the raw updates otherwise —
// and finally the site and update-count accounting. Replay passes a
// nil record.
// caller holds: mu
func (c *Coordinator) applyBatchLocked(rec *wal.Record, site string, count uint64, ups []datagen.Update, entries []wal.DigestUpdate, packable bool) (uint64, error) {
	if err := c.logRecord(rec); err != nil {
		return 0, err
	}
	if packable {
		if err := c.applyDigestsLocked(entries); err != nil {
			return 0, err
		}
	} else {
		for _, u := range ups {
			c.famLocked(u.Stream).Update(u.Elem, u.Delta)
			if err := c.cqe.Observe(u.Stream, u.Elem, u.Delta); err != nil {
				return 0, err
			}
		}
	}
	return c.creditLocked(site, count), nil
}

// applyDigestsLocked adds one batch's digest entries to their streams'
// merged synopses and to every view reading those streams — pure
// counter adds; the hash bill was paid (or cached) when the digests
// were built. Every digest's width is checked before the first add, so
// a malformed record is rejected whole. The entries are then grouped
// by stream, and each group is applied with one copy-major
// UpdateBatchDigest call per family, so each copy's counter slab
// streams through cache once per batch rather than once per entry.
// Integer adds commute, so any grouping is exactly equivalent to
// applying the original updates in order (linearity). The whole batch
// is one arrival instant for window placement.
// caller holds: mu
func (c *Coordinator) applyDigestsLocked(entries []wal.DigestUpdate) error {
	for i := range entries {
		if n := len(entries[i].Digest); n != c.coins.Copies {
			return fmt.Errorf("distributed: digest has %d words for %d copies", n, c.coins.Copies)
		}
	}
	g := &c.groups
	g.build(entries)
	now := c.cqe.Now()
	for s, name := range g.names {
		grp := &g.grps[s]
		c.famLocked(name).UpdateBatchDigest(grp.ds, grp.deltas)
		if err := c.cqe.ObserveDigestBatch(now, name, grp.ds, grp.deltas); err != nil {
			return err
		}
	}
	return nil
}

// streamGroups is the coordinator's reusable scratch for grouping one
// batch's digest entries by stream, streams in order of first
// appearance, each group's digests and deltas contiguous for one
// kernel call. Group slots keep their buffers batch to batch, so the
// warm path allocates nothing.
type streamGroups struct {
	idx   map[string]int // stream → group number
	names []string       // group g's stream
	grps  []streamGroup  // group g's entries; slots past len(names) are spare
}

type streamGroup struct {
	ds     []core.Digest
	deltas []int64
}

// build groups entries; the previous batch's groups are discarded.
func (g *streamGroups) build(entries []wal.DigestUpdate) {
	if g.idx == nil {
		g.idx = make(map[string]int)
	}
	clear(g.idx)
	g.names = g.names[:0]
	for i := range entries {
		e := &entries[i]
		s, ok := g.idx[e.Stream]
		if !ok {
			s = len(g.names)
			g.idx[e.Stream] = s
			g.names = append(g.names, e.Stream)
			if s == len(g.grps) {
				g.grps = append(g.grps, streamGroup{})
			}
			g.grps[s].ds, g.grps[s].deltas = g.grps[s].ds[:0], g.grps[s].deltas[:0]
		}
		grp := &g.grps[s]
		grp.ds = append(grp.ds, e.Digest)
		grp.deltas = append(grp.deltas, e.Delta)
	}
}
