package distributed

// Continuous-view catalog: CREATE VIEW / DROP VIEW statements applied
// to the embedded cq.Engine under the coordinator's state lock, with
// each accepted statement WAL-logged (append-before-apply, like every
// other mutation) so the catalog survives restarts. Recovery re-runs
// the snapshot's statement list plus the RecView suffix; window/group
// sketch contents then rebuild from the replayed update records.

import (
	"fmt"
	"time"

	"setsketch/internal/cq"
	"setsketch/internal/wal"
)

// SetCQOptions reconfigures the continuous-view engine (group bound,
// group separator, window clock). Call it before Recover and before
// the coordinator serves traffic, like SetObservability — it replaces
// the engine, discarding any registered views. opts.NewFamily is
// overridden with the coordinator's coins.
//
//sketchvet:wal-exempt pre-traffic setup: replaces the engine before recovery or traffic
func (c *Coordinator) SetCQOptions(opts cq.Options) error {
	opts.NewFamily = c.coins.NewFamily
	e, err := cq.NewEngine(opts)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.cqe = e
	c.mu.Unlock()
	return nil
}

// CreateView registers a continuous view from a CREATE VIEW statement,
// WAL-logging the canonical form before applying it. The returned spec
// is the validated, canonicalized definition.
//
//sketchvet:wal-handler
func (c *Coordinator) CreateView(statement string) (cq.ViewSpec, error) {
	st, err := cq.ParseStatement(statement)
	if err != nil {
		return cq.ViewSpec{}, err
	}
	if st.Create == nil {
		return cq.ViewSpec{}, fmt.Errorf("distributed: expected a CREATE VIEW statement")
	}
	spec := *st.Create
	c.mu.Lock()
	defer c.mu.Unlock()
	// Duplicate check precedes the WAL append so the post-append
	// Register cannot fail (the statement parsed, so it validates).
	if c.cqe.View(spec.Name) != nil {
		return cq.ViewSpec{}, fmt.Errorf("distributed: view %q already exists", spec.Name)
	}
	if err := c.logRecord(c.viewRecord(spec.Name, spec.Statement())); err != nil {
		return cq.ViewSpec{}, err
	}
	if _, err := c.cqe.Register(spec); err != nil {
		return cq.ViewSpec{}, err // unreachable: validated + no duplicate
	}
	c.log.Info("view created", "view", spec.Name, "statement", spec.Statement())
	return spec, nil
}

// DropView removes a view from the catalog, WAL-logging the drop.
// Watchers attached to the view keep running and report an unknown-view
// error each round until closed.
//
//sketchvet:wal-handler
func (c *Coordinator) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cqe.View(name) == nil {
		return fmt.Errorf("distributed: view %q does not exist", name)
	}
	if err := c.logRecord(c.viewRecord(name, "DROP VIEW "+name)); err != nil {
		return err
	}
	c.cqe.Drop(name)
	c.log.Info("view dropped", "view", name)
	return nil
}

// viewRecord renders a catalog statement as a WAL record, or nil when
// durability is off.
func (c *Coordinator) viewRecord(name, statement string) *wal.Record {
	if c.wlog == nil {
		return nil
	}
	return &wal.Record{Type: wal.RecView, View: name, Statement: statement}
}

// applyViewStatementLocked applies a catalog statement to the engine
// without logging — the recovery path (snapshot view lists and RecView
// replay).
// caller holds: mu
//
//sketchvet:wal-exempt recovery replay applies already-logged catalog records
func (c *Coordinator) applyViewStatementLocked(statement string) error {
	st, err := cq.ParseStatement(statement)
	if err != nil {
		return err
	}
	switch {
	case st.Create != nil:
		if c.cqe.View(st.Create.Name) != nil {
			// A snapshot view re-created by a replayed RecView (the
			// record predates the snapshot's catalog capture but was
			// not pruned yet): the catalog already has the newer state.
			return nil
		}
		_, err := c.cqe.Register(*st.Create)
		return err
	default:
		c.cqe.Drop(st.Drop)
		return nil
	}
}

// Views returns every registered view's definition, sorted by name.
func (c *Coordinator) Views() []cq.ViewSpec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cqe.Specs()
}

// ViewStatements returns the catalog as canonical CREATE VIEW
// statements, sorted by name.
func (c *Coordinator) ViewStatements() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cqe.Statements()
}

// RotateViews advances every windowed view's ring to the engine clock's
// now, evicting aged-out buckets. Updates rotate their own target rings
// lazily; this sweep exists so idle views still age (and watchers see
// the eviction through the view's version stamp).
//
//sketchvet:wal-exempt rotation is clock-derived; recovery re-ages windows from record timestamps
func (c *Coordinator) RotateViews() {
	// Read the clock through the engine under the same lock as the
	// rotation: SetCQOptions swaps the whole engine, and reading c.cqe
	// unlocked could rotate the old engine with the new engine's now.
	c.mu.Lock()
	c.cqe.RotateAll(c.cqe.Now())
	c.mu.Unlock()
}

// viewVersions fills out[i] with a change stamp for view names[i]: 0
// when the view does not exist, otherwise its version offset by 1 (so
// appearing and disappearing are both changes). The watcher round-skip
// logic compares stamps like streamVersions.
func (c *Coordinator) viewVersions(names []string, out []uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, name := range names {
		if v := c.cqe.View(name); v != nil {
			out[i] = v.Version() + 1
		} else {
			out[i] = 0
		}
	}
}

// ViewRotator periodically rotates windowed views so eviction happens
// on time even when no updates arrive. It is the cq counterpart of
// Snapshotter.
type ViewRotator struct {
	c        *Coordinator
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// StartViewRotator runs a rotation loop at the given interval
// (typically well under the smallest SLIDE in use). A non-positive
// interval disables the loop and returns nil (Stop on nil is a no-op);
// updates and watch rounds still rotate lazily.
func StartViewRotator(c *Coordinator, interval time.Duration) *ViewRotator {
	if interval <= 0 {
		return nil
	}
	r := &ViewRotator{
		c:        c,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.loop()
	return r
}

func (r *ViewRotator) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.c.RotateViews()
		}
	}
}

// Stop halts the rotation loop and waits for an in-flight sweep.
func (r *ViewRotator) Stop() {
	if r == nil {
		return
	}
	close(r.stop)
	<-r.done
}
