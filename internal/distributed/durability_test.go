package distributed

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/cq"
	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
	"setsketch/internal/wal"
)

func openTestLog(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{
		Config: testCoins.Config,
		Seed:   testCoins.Seed,
		Copies: testCoins.Copies,
		Sync:   wal.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// requireSameState asserts two coordinators hold bit-identical merged
// state: same streams, same counters in every family, same accounting.
func requireSameState(t *testing.T, want, got *Coordinator) {
	t.Helper()
	ws, gs := want.Streams(), got.Streams()
	if strings.Join(ws, ",") != strings.Join(gs, ",") {
		t.Fatalf("streams differ: %v vs %v", ws, gs)
	}
	for _, name := range ws {
		if !want.Family(name).Equal(got.Family(name)) {
			t.Fatalf("stream %q synopsis differs after recovery", name)
		}
	}
	if want.Updates() != got.Updates() {
		t.Fatalf("updates credited: want %d, got %d", want.Updates(), got.Updates())
	}
	wp, gp := want.Pushes(), got.Pushes()
	if len(wp) != len(gp) {
		t.Fatalf("site accounting differs: %v vs %v", wp, gp)
	}
	for site, n := range wp {
		if gp[site] != n {
			t.Fatalf("site %q accounting: want %d, got %d", site, n, gp[site])
		}
	}
}

// testWorkload drives a mixed mutation sequence — raw batches (the
// digest-packed WAL path with these coins), synopsis deltas, and a
// one-shot push — through a coordinator.
func testWorkload(t *testing.T, c *Coordinator) {
	t.Helper()
	rng := hashing.NewRNG(42)
	var ups []datagen.Update
	for i := 0; i < 400; i++ {
		stream := "A"
		if i%3 == 0 {
			stream = "B"
		}
		ups = append(ups, datagen.Update{Stream: stream, Elem: rng.Uint64n(1 << 20), Delta: 1})
	}
	if err := c.ApplyUpdates("edge1", ups[:200]); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyUpdates("edge1", ups[200:]); err != nil {
		t.Fatal(err)
	}
	site, _ := NewSite("edge2", testCoins)
	for i := 0; i < 300; i++ {
		if err := site.Insert("C", rng.Uint64n(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	snap := site.Flush()
	if err := c.ApplyDelta("edge2", "C", snap["C"], 300); err != nil {
		t.Fatal(err)
	}
	oneShot, _ := testCoins.NewFamily()
	oneShot.Insert(7777)
	if err := c.Push("edge3", "A", oneShot); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorWALRecovery is the core durability property: a fresh
// coordinator recovering from the WAL alone (no snapshot, no clean
// close of the log — only fsynced appends survive, as after kill -9)
// rebuilds bit-identical state.
func TestCoordinatorWALRecovery(t *testing.T) {
	dir := t.TempDir()
	c1, _ := NewCoordinator(testCoins)
	l1 := openTestLog(t, dir)
	c1.AttachWAL(l1)
	testWorkload(t, c1)
	// No l1.Close(): simulate a crash. SyncAlways means every acked
	// mutation is already on disk.

	c2, _ := NewCoordinator(testCoins)
	l2 := openTestLog(t, dir)
	defer l2.Close()
	rs, err := c2.Recover(l2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotSeq != 0 {
		t.Errorf("unexpected snapshot: covering seq %d", rs.SnapshotSeq)
	}
	if rs.Replayed.Records == 0 || rs.Replayed.FirstSeq != 1 {
		t.Errorf("replay stats: %+v", rs.Replayed)
	}
	requireSameState(t, c1, c2)

	// The recovered coordinator answers queries over the rebuilt state.
	e1, err := c1.Estimate("A | B | C", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c2.Estimate("A | B | C", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Value != e2.Value {
		t.Errorf("estimates diverge after recovery: %v vs %v", e1.Value, e2.Value)
	}
	l1.Close()
}

// TestApplyUpdatesDigestPathBitIdentical pins the live non-WAL raw
// update path: with digest-packable coins, ApplyUpdates coalesces each
// batch, pays the hash bill once through the batch digest kernel, and
// applies the counter adds copy-major per stream; the resulting
// synopses must be bit-identical to per-element direct updates.
func TestApplyUpdatesDigestPathBitIdentical(t *testing.T) {
	if !testCoins.Config.DigestPackable() {
		t.Fatal("test coins must be digest-packable to cover the batched path")
	}
	c, _ := NewCoordinator(testCoins)
	g, err := datagen.NewLoadGen(datagen.LoadSpec{
		Streams: []string{"A", "B"},
		Domain:  datagen.DomainUniform,
		Support: 1 << 10,
		Theta:   1.0,
		Deletes: 0.3,
	}, hashing.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	ups := g.Updates(4096)
	want := map[string]*core.Family{}
	for _, name := range []string{"A", "B"} {
		want[name], _ = testCoins.NewFamily()
		for _, u := range ups {
			if u.Stream == name {
				want[name].Update(u.Elem, u.Delta)
			}
		}
	}
	for i := 0; i < len(ups); i += 256 {
		end := i + 256
		if end > len(ups) {
			end = len(ups)
		}
		if err := c.ApplyUpdates("site", ups[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"A", "B"} {
		if !c.Family(name).Equal(want[name]) {
			t.Errorf("stream %q: batched digest path diverges from direct updates", name)
		}
	}
	if c.Updates() != uint64(len(ups)) {
		t.Errorf("updates credited: want %d, got %d", len(ups), c.Updates())
	}
}

// TestApplyManyStreamsBitIdentical drives the per-stream grouping of
// the batch apply path hard: 16 streams interleaved within every batch
// with 30% deletes, a WAL-backed live coordinator plus a second one
// recovered from its log, a hand-built digest record whose streams are
// interleaved and unsorted (as earlier releases wrote them), and two
// registered windowed views, one grouped. Every stream family must
// equal one built with direct per-element updates, and every view
// estimate must equal the same query over those direct families.
func TestApplyManyStreamsBitIdentical(t *testing.T) {
	coins := Coins{Config: core.Config{Buckets: 61, SecondLevel: 16, FirstWise: 8}, Seed: 5, Copies: 32}
	streams := []string{"t1:L", "t2:L", "t1:R", "t2:R"}
	for i := len(streams); i < 16; i++ {
		streams = append(streams, fmt.Sprintf("S%d", i))
	}
	clock := time.Unix(1_700_000_000, 0) // fixed: every update lands in one window bucket
	views := []string{
		"CREATE VIEW wv AS S4 | S9 WINDOW 4m SLIDE 1m",
		"CREATE VIEW gv AS L - R WINDOW 2m GROUP BY tenant",
	}
	newCoord := func() *Coordinator {
		c, err := NewCoordinator(coins)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetCQOptions(cq.Options{Now: func() time.Time { return clock }}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	dir := t.TempDir()
	openLog := func() *wal.Log {
		l, err := wal.Open(dir, wal.Options{Config: coins.Config, Seed: coins.Seed, Copies: coins.Copies, Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	live, l1 := newCoord(), openLog()
	live.AttachWAL(l1)
	for _, v := range views {
		if _, err := live.CreateView(v); err != nil {
			t.Fatal(err)
		}
	}

	g, err := datagen.NewLoadGen(datagen.LoadSpec{
		Streams: streams,
		Domain:  datagen.DomainUniform,
		Support: 1 << 12,
		Deletes: 0.3,
	}, hashing.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	ups := g.Updates(16 * 256)
	for i := 0; i < len(ups); i += 256 {
		if err := live.ApplyUpdates("edge", ups[i:i+256]); err != nil {
			t.Fatal(err)
		}
	}

	// A digest record in arrival order: streams interleaved, one
	// (stream, element) pair repeated, nothing sorted.
	hand := []datagen.Update{
		{Stream: "S9", Elem: 7, Delta: 2}, {Stream: "t2:R", Elem: 3, Delta: 1},
		{Stream: "S4", Elem: 7, Delta: 1}, {Stream: "S9", Elem: 11, Delta: 1},
		{Stream: "t1:L", Elem: 3, Delta: 4}, {Stream: "S9", Elem: 7, Delta: -1},
	}
	scratch, _ := coins.NewFamily()
	rec := &wal.Record{Type: wal.RecDigests, Site: "hand", Count: uint64(len(hand))}
	for _, u := range hand {
		rec.Digests = append(rec.Digests, wal.DigestUpdate{Stream: u.Stream, Elem: u.Elem, Delta: u.Delta, Digest: scratch.Digest(u.Elem)})
	}
	if _, err := l1.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := live.applyWALRecord(rec); err != nil {
		t.Fatal(err)
	}
	ups = append(ups, hand...)
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, l2 := newCoord(), openLog()
	defer l2.Close()
	if _, err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, live, recovered)

	want := map[string]*core.Family{}
	for _, u := range ups {
		if want[u.Stream] == nil {
			want[u.Stream], _ = coins.NewFamily()
		}
		want[u.Stream].Update(u.Elem, u.Delta)
	}
	if got := live.Streams(); len(got) != len(want) {
		t.Fatalf("streams %v, want %d", got, len(want))
	}
	for name, f := range want {
		if !live.Family(name).Equal(f) {
			t.Errorf("stream %q: batched apply diverges from direct updates", name)
		}
	}
	if live.Updates() != uint64(len(ups)) {
		t.Errorf("updates credited: want %d, got %d", len(ups), live.Updates())
	}

	wantView := map[string]map[string]map[string]*core.Family{
		"wv": {"": {"S4": want["S4"], "S9": want["S9"]}},
		"gv": {"t1": {"L": want["t1:L"], "R": want["t1:R"]}, "t2": {"L": want["t2:L"], "R": want["t2:R"]}},
	}
	for _, c := range []*Coordinator{live, recovered} {
		c.mu.RLock()
		for name, groups := range wantView {
			v := c.cqe.View(name)
			node, _ := expr.Parse(v.Spec().Expr)
			q, err := core.CompileQuery(node)
			if err != nil {
				t.Fatal(err)
			}
			res := c.cqe.Evaluate(v, 0.2, c.estOpts)
			if len(res) != len(groups) {
				t.Fatalf("view %s: %d groups, want %d", name, len(res), len(groups))
			}
			for _, r := range res {
				est, err := q.Estimate(groups[r.Group], 0.2, true, c.estOpts)
				if err != nil {
					t.Fatal(err)
				}
				if r.Err != "" || r.Est != est {
					t.Errorf("view %s group %q: estimate %+v (err %q), direct %+v", name, r.Group, r.Est, r.Err, est)
				}
			}
		}
		c.mu.RUnlock()
	}
}

// TestApplyDigestsRejectsBadWidthWhole: a digest record whose later
// entry has the wrong width is rejected before any counter add, so no
// earlier entry of it is half-applied.
func TestApplyDigestsRejectsBadWidthWhole(t *testing.T) {
	c, _ := NewCoordinator(testCoins)
	scratch, _ := testCoins.NewFamily()
	good := scratch.DigestBatch([]uint64{1})[0]
	rec := &wal.Record{Type: wal.RecDigests, Site: "s", Count: 2, Digests: []wal.DigestUpdate{
		{Stream: "A", Elem: 1, Delta: 1, Digest: good},
		{Stream: "B", Elem: 2, Delta: 1, Digest: good[:len(good)-1]},
	}}
	if err := c.applyWALRecord(rec); err == nil {
		t.Fatal("record with a short digest applied")
	}
	if got := c.Streams(); len(got) != 0 || c.Updates() != 0 {
		t.Fatalf("rejected record left state behind: streams %v, updates %d", got, c.Updates())
	}
}

// TestCoordinatorSnapshotRecovery: recovery = last snapshot + WAL
// suffix. The replay must start exactly past the snapshot's covering
// sequence, and the result must be bit-identical to the uninterrupted
// coordinator.
func TestCoordinatorSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	c1, _ := NewCoordinator(testCoins)
	l1 := openTestLog(t, dir)
	c1.AttachWAL(l1)
	testWorkload(t, c1)
	if err := c1.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	covered := l1.LastSeq()
	testWorkload(t, c1) // post-snapshot suffix to replay

	c2, _ := NewCoordinator(testCoins)
	l2 := openTestLog(t, dir)
	defer l2.Close()
	rs, err := c2.Recover(l2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotSeq != covered {
		t.Errorf("recovered from snapshot seq %d, want %d", rs.SnapshotSeq, covered)
	}
	if rs.Replayed.FirstSeq != covered+1 {
		t.Errorf("replay started at seq %d, want %d", rs.Replayed.FirstSeq, covered+1)
	}
	requireSameState(t, c1, c2)
	l1.Close()
}

// TestWALAppendFailureNotApplied is the write-ahead guarantee from the
// failure side: when the log cannot accept the record, the mutation
// must not be applied (and the frame would not be acked).
func TestWALAppendFailureNotApplied(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCoordinator(testCoins)
	l := openTestLog(t, dir)
	l.Close() // appends now fail
	c.AttachWAL(l)

	err := c.ApplyUpdates("s", []datagen.Update{{Stream: "A", Elem: 1, Delta: 1}})
	if err == nil {
		t.Fatal("ApplyUpdates succeeded against a closed WAL")
	}
	fam, _ := testCoins.NewFamily()
	fam.Insert(1)
	if err := c.ApplyDelta("s", "A", fam, 1); err == nil {
		t.Fatal("ApplyDelta succeeded against a closed WAL")
	}
	if got := c.Updates(); got != 0 {
		t.Errorf("updates credited despite append failure: %d", got)
	}
	if streams := c.Streams(); len(streams) != 0 {
		t.Errorf("streams materialized despite append failure: %v", streams)
	}
}

// TestSnapshotterLoop: the periodic snapshotter writes a snapshot soon
// after mutations land, and skips rounds when nothing new was logged.
func TestSnapshotterLoop(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCoordinator(testCoins)
	l := openTestLog(t, dir)
	defer l.Close()
	c.AttachWAL(l)
	s := StartSnapshotter(c, 10*time.Millisecond, nil)
	defer s.Stop()
	if err := c.ApplyUpdates("s", []datagen.Update{{Stream: "A", Elem: 9, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.LastSnapshotSeq() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("snapshotter never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := l.LastSnapshotSeq(); got != l.LastSeq() {
		t.Errorf("snapshot covers seq %d, last appended is %d", got, l.LastSeq())
	}
	// Nil snapshotter (interval <= 0) is inert and Stop-safe.
	var nilSnap *Snapshotter = StartSnapshotter(c, 0, nil)
	nilSnap.Stop()
}

// TestServerCloseDrainsSessions: closing the server with open
// streaming sessions — one idle, one sending — returns promptly
// (no waiting out IdleTimeout) and never tears a dispatch mid-flight:
// every batch either errors at the client or is fully applied.
func TestServerCloseDrainsSessions(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	srv := NewServer(coord)
	srv.IdleTimeout = time.Hour // drain must not wait this out
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	idle, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.OpenStream("idle", testCoins); err != nil {
		t.Fatal(err)
	}

	busy, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	sess, err := busy.OpenStream("busy", testCoins)
	if err != nil {
		t.Fatal(err)
	}
	var acked uint64
	var mu sync.Mutex
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		for i := uint64(0); ; i++ {
			n, err := sess.SendUpdates([]datagen.Update{{Stream: "A", Elem: i, Delta: 1}})
			if err != nil {
				return
			}
			mu.Lock()
			acked = n
			mu.Unlock()
		}
	}()

	time.Sleep(20 * time.Millisecond) // let some batches through
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v with an idle session open", elapsed)
	}
	<-senderDone
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := coord.Updates(); got < acked {
		t.Errorf("coordinator credited %d updates, but %d were acked", got, acked)
	}
}
