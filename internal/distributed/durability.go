package distributed

// Durability wiring: write-ahead logging, snapshots, and crash
// recovery for the coordinator.
//
// The invariant everything here rests on is linearity: every synopsis
// counter is a sum of per-update contributions, so coordinator state
// is a pure function of the multiset of accepted mutations. The WAL
// records exactly that multiset (raw updates, packed digests, or
// serialized deltas), appended under the coordinator's state lock
// *before* the state mutation — so log order is apply order, an
// acknowledged frame is always in the log, and replaying a suffix of
// the log over a snapshot of the prefix reconstructs the exact
// (bit-identical) counters, not an approximation of them.

import (
	"bytes"
	"fmt"
	"maps"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// AttachWAL arms write-ahead logging: every accepted mutation (raw
// update batch, synopsis delta, one-shot push) is appended to l —
// under wal.SyncAlways, fsynced — before it is applied, so a frame is
// only acked once it is recoverable. Call it after Recover and before
// the coordinator serves traffic, like SetObservability.
func (c *Coordinator) AttachWAL(l *wal.Log) { c.wlog = l }

// WAL returns the attached write-ahead log, or nil when durability is
// off.
func (c *Coordinator) WAL() *wal.Log { return c.wlog }

// logRecord appends one record (built by the caller outside the state
// lock) to the attached WAL. Called with mu held exclusively, before
// the matching state mutation; a nil record,
// or no attached WAL, is a no-op. On error the caller must not apply:
// the batch is not acked and the write-ahead guarantee holds.
func (c *Coordinator) logRecord(rec *wal.Record) error {
	if c.wlog == nil || rec == nil {
		return nil
	}
	if _, err := c.wlog.Append(rec); err != nil {
		return fmt.Errorf("distributed: wal append: %w", err)
	}
	return nil
}

// deltaRecord renders a synopsis delta as a WAL record, or nil when no
// WAL is attached. Serialization happens outside every lock.
func (c *Coordinator) deltaRecord(site, stream string, fam *core.Family, count uint64) (*wal.Record, error) {
	if c.wlog == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if _, err := fam.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("distributed: serialize delta for wal: %w", err)
	}
	return &wal.Record{Type: wal.RecDelta, Site: site, Stream: stream, Count: count, Synopsis: buf.Bytes()}, nil
}

// applyWALRecord applies one replayed record — the recovery-side twin
// of the Apply* entry points, minus re-logging and watch triggers.
//
//sketchvet:wal-exempt recovery replay applies already-logged records
func (c *Coordinator) applyWALRecord(rec *wal.Record) error {
	var err error
	switch rec.Type {
	case wal.RecUpdates, wal.RecDigests:
		c.mu.Lock()
		_, err = c.applyBatchLocked(nil, rec.Site, rec.Count, rec.Updates, rec.Digests, rec.Type == wal.RecDigests)
		c.mu.Unlock()
	case wal.RecDelta:
		var fam *core.Family
		if fam, err = core.ReadFamily(bytes.NewReader(rec.Synopsis)); err != nil {
			break
		}
		if fam.Config() != c.coins.Config || fam.Seed() != c.coins.Seed || fam.Copies() != c.coins.Copies {
			err = core.ErrNotAligned
			break
		}
		c.mu.Lock()
		_, err = c.applyDeltaLocked(nil, rec.Site, rec.Stream, fam, rec.Count)
		c.mu.Unlock()
	case wal.RecMark:
		// site-local flush marks carry no coordinator state
	case wal.RecView:
		// Re-apply the catalog statement without re-logging it. A view
		// credits no sites/updates.
		c.mu.Lock()
		err = c.applyViewStatementLocked(rec.Statement)
		c.mu.Unlock()
	default:
		err = fmt.Errorf("unknown record type %d", rec.Type)
	}
	if err != nil {
		return fmt.Errorf("distributed: replay seq %d: %w", rec.Seq, err)
	}
	return nil
}

// RecoveryStats summarizes one crash recovery.
type RecoveryStats struct {
	SnapshotSeq     uint64 // covering seq of the snapshot loaded (0 if none)
	SnapshotStreams int    // streams restored from the snapshot
	Replayed        wal.ReplayStats
}

// Recover rebuilds coordinator state from the newest loadable snapshot
// in l's directory plus the WAL suffix past it. The coordinator must
// be fresh (no traffic applied); call Recover before AttachWAL so
// replayed records are not re-logged. A missing or corrupt snapshot
// only lengthens the replay — recovery falls back to older snapshots
// and ultimately to replaying the whole log.
func (c *Coordinator) Recover(l *wal.Log) (RecoveryStats, error) {
	var rs RecoveryStats
	snap, err := wal.LoadLatestSnapshot(l.Dir(), c.log)
	if err != nil {
		return rs, err
	}
	from := uint64(1)
	if snap != nil {
		if err := c.InstallSnapshot(snap); err != nil {
			return rs, err
		}
		from = snap.Seq + 1
		rs.SnapshotSeq = snap.Seq
		rs.SnapshotStreams = len(snap.Streams)
	}
	rs.Replayed, err = l.Replay(from, c.applyWALRecord)
	if err != nil {
		return rs, err
	}
	c.log.Info("recovered",
		"snapshot_seq", rs.SnapshotSeq,
		"replayed_records", rs.Replayed.Records,
		"replayed_updates", rs.Replayed.Updates,
		"last_seq", rs.Replayed.LastSeq,
		"elapsed", rs.Replayed.Elapsed.String())
	return rs, nil
}

// InstallSnapshot replaces the coordinator's state with a snapshot's.
// The snapshot's families are adopted directly (LoadLatestSnapshot
// already deep-read them from disk); they must match the coordinator's
// stored coins.
//
//sketchvet:wal-exempt snapshot install replaces state with an already-durable image
func (c *Coordinator) InstallSnapshot(snap *wal.Snapshot) error {
	for name, fam := range snap.Streams {
		if fam.Config() != c.coins.Config || fam.Seed() != c.coins.Seed || fam.Copies() != c.coins.Copies {
			return fmt.Errorf("distributed: snapshot stream %q: %w", name, core.ErrNotAligned)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fams = make(map[string]*core.Family, len(snap.Streams))
	maps.Copy(c.fams, snap.Streams)
	c.sites = make(map[string]int, len(snap.Sites))
	maps.Copy(c.sites, snap.Sites)
	c.updates.Store(snap.Updates)
	// Re-register the view catalog. Window/group sketch state is NOT
	// snapshotted — views refill from the replayed WAL suffix only,
	// landing in the bucket current at replay time, and re-converge
	// over one window of live traffic (see DESIGN.md "Continuous
	// queries" for the trade-off).
	for _, stmt := range snap.Views {
		if err := c.applyViewStatementLocked(stmt); err != nil {
			return fmt.Errorf("distributed: snapshot view: %w", err)
		}
	}
	return nil
}

// WriteSnapshot writes one snapshot of the current state through the
// attached WAL and prunes segments the snapshot covers. The state is
// captured under mu held shared — every batch holds mu exclusively for
// its whole append+apply window, so the captured families, site
// counts, view catalog, and covering WAL sequence are mutually
// consistent — and the (slow) disk write proceeds without any
// coordinator lock. A no-op when nothing was logged since the last
// snapshot.
func (c *Coordinator) WriteSnapshot() error {
	l := c.wlog
	if l == nil {
		return fmt.Errorf("distributed: no WAL attached")
	}
	c.mu.RLock()
	seq := l.LastSeq()
	total := c.updates.Load()
	siteCounts := maps.Clone(c.sites)
	famClones := make(map[string]*core.Family, len(c.fams))
	for name, f := range c.fams {
		famClones[name] = f.Clone()
	}
	views := c.cqe.Statements()
	c.mu.RUnlock()
	if seq == 0 || seq == l.LastSnapshotSeq() {
		return nil
	}
	return l.WriteSnapshot(seq, total, siteCounts, famClones, views)
}

// Snapshotter periodically snapshots coordinator state so recovery
// replay stays short and covered WAL segments can be pruned.
type Snapshotter struct {
	c        *Coordinator
	interval time.Duration
	log      *obs.Logger
	stop     chan struct{}
	done     chan struct{}
}

// StartSnapshotter runs a snapshot loop at the given interval. A
// non-positive interval disables periodic snapshots and returns nil
// (Stop on a nil Snapshotter is a no-op); callers can still snapshot
// explicitly via Coordinator.WriteSnapshot.
func StartSnapshotter(c *Coordinator, interval time.Duration, log *obs.Logger) *Snapshotter {
	if interval <= 0 {
		return nil
	}
	s := &Snapshotter{
		c:        c,
		interval: interval,
		log:      log.Named("snapshot"),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *Snapshotter) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.c.WriteSnapshot(); err != nil {
				s.log.Warn("periodic snapshot failed", "err", err.Error())
			}
		}
	}
}

// Stop halts the loop and waits for an in-flight snapshot to finish.
// It does not write a final snapshot — shutdown does that explicitly
// once the server has drained.
func (s *Snapshotter) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}
