package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/hashing"
)

// ring is one session's pregenerated batch sequence. Sessions replay it
// from the start and wrap around; each pass starts from non-negative
// net frequencies, so every delete stays legal.
type ring struct {
	batches [][]datagen.Update
	fill    time.Duration // LoadGen.Fill time spent building the ring
}

func (r *ring) batch(k int) []datagen.Update { return r.batches[k%len(r.batches)] }

// makeRings builds one ring per writer session from the seed, before
// any server starts, so load generation stays off the timed path.
func makeRings(w workload, seed uint64) ([]*ring, error) {
	rings := make([]*ring, w.writers())
	for i := range rings {
		spec := datagen.LoadSpec{Streams: w.streams, Domain: datagen.DomainUniform,
			Support: w.support, Theta: w.theta, Deletes: deleteRatio}
		g, err := datagen.NewLoadGen(spec, hashing.NewRNG(hashing.DeriveSeed(seed, uint64(i))))
		if err != nil {
			return nil, err
		}
		backing := make([]datagen.Update, ringBatches*batchSize)
		r := &ring{batches: make([][]datagen.Update, ringBatches)}
		for k := range r.batches {
			b := backing[k*batchSize : (k+1)*batchSize : (k+1)*batchSize]
			t0 := time.Now()
			g.Fill(b)
			r.fill += time.Since(t0)
			r.batches[k] = b
		}
		rings[i] = r
	}
	return rings, nil
}

// conn is one writer session: its connection, its ring and how far
// into the ring it has sent.
type conn struct {
	cli    *distributed.Client
	sess   *distributed.StreamSession
	ring   *ring
	cursor int    // ring batches sent and acked
	sent   uint64 // updates sent and acked
}

func coins() distributed.Coins {
	cfg := core.DefaultConfig()
	cfg.SecondLevel = secondLevel
	cfg.FirstWise = firstWise
	return distributed.Coins{Config: cfg, Seed: coinSeed, Copies: copies}
}

func openConn(addr string, id int, r *ring) (*conn, error) {
	cli, err := distributed.Dial(addr)
	if err != nil {
		return nil, err
	}
	sess, err := cli.OpenStream("site-"+strconv.Itoa(id), coins())
	if err != nil {
		cli.Close()
		return nil, err
	}
	return &conn{cli: cli, sess: sess, ring: r}, nil
}

// send forwards the next ring batch and waits for its ack.
func (c *conn) send() (t0, t1 time.Time, err error) {
	b := c.ring.batch(c.cursor)
	t0 = time.Now()
	_, err = c.sess.SendUpdates(b)
	t1 = time.Now()
	if err == nil {
		c.cursor++
		c.sent += uint64(len(b))
	}
	return t0, t1, err
}

// observed is everything one run measured, before it becomes metrics.
type observed struct {
	window bracket // /metrics across the timed window
	// The quiescent probes after the window, each bracketed by /metrics.
	queryProbe, lagProbe bracket

	procBefore, procAfter procSnap
	mutexBefore, mutex    float64 // contention seconds (trace runs)
	ticks                 []tick  // one-second samples across the window

	acks    series          // batch send (open loop: due time) -> ack, in window
	rtts    []time.Duration // batch send -> ack, in window
	lates   []time.Duration // open-loop send time minus due time
	queries series          // query-mix window, or the quiescent query probe
	lags    series          // quiescent watch probe
	setups  []time.Duration

	recoveryRate float64 // median replayed updates per second of restart

	// writerOnly is query-mix's writer measured without the queries,
	// after the window (trace runs only).
	writerOnly *observed

	attempted, failed int64
	failures          []string
}

func (o *observed) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// setUp starts one server and times exec -> first ack, including the
// WAL open. It returns the server and its writer sessions, session 0
// having sent its first ring batch.
func setUp(cfg config, walDir string, rings []*ring) (*server, []*conn, time.Duration, error) {
	s, err := startServer(cfg, serverArgs(cfg, walDir))
	if err != nil {
		return nil, nil, 0, err
	}
	conns := make([]*conn, len(rings))
	for i, r := range rings {
		c, err := openConn(s.addr, i, r)
		if err == nil && i == 0 {
			_, _, err = c.send()
		}
		if err != nil {
			closeConns(conns[:i])
			s.kill()
			return nil, nil, 0, err
		}
		conns[i] = c
	}
	return s, conns, time.Since(s.started), nil
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		if c != nil {
			c.cli.Close()
		}
	}
}

// loadRec is one load goroutine's private samples.
type loadRec struct {
	acks, queries []sample
	rtts, lates   []time.Duration
	attempted     int64
	err           error
}

// tick is one sample of the server's CPU time and credited updates.
type tick struct {
	proc     procSnap
	credited float64
}

// closedLoop sends the session's next batch as soon as the previous one
// is acked, as a site waiting for acks does.
func closedLoop(c *conn, ws, we time.Time, stop *atomic.Bool, rec *loadRec) {
	for !stop.Load() {
		t0, t1, err := c.send()
		rec.attempted++
		if err != nil {
			rec.err = err
			return
		}
		if !t0.Before(ws) && t0.Before(we) {
			rec.acks = append(rec.acks, sample{t0, t1.Sub(t0)})
			rec.rtts = append(rec.rtts, t1.Sub(t0))
		}
	}
}

// openLoop sends one batch every batchSize/writerRate seconds whatever
// the server does, as independent producers would; each ack is timed
// from when its batch was due.
func openLoop(c *conn, start, ws, we time.Time, stop *atomic.Bool, rec *loadRec) {
	interval := time.Second * batchSize / writerRate
	for due := start; !stop.Load(); due = due.Add(interval) {
		sleepUntil(due)
		t0, t1, err := c.send()
		rec.attempted++
		if err != nil {
			rec.err = err
			return
		}
		if !due.Before(ws) && due.Before(we) {
			rec.acks = append(rec.acks, sample{due, t1.Sub(due)})
			rec.rtts = append(rec.rtts, t1.Sub(t0))
			rec.lates = append(rec.lates, t0.Sub(due))
		}
	}
}

// queryLoop issues the query list round-robin, one query every
// 1/queryRate seconds whatever the server does; each is timed from
// when it was due.
func queryLoop(cli *distributed.Client, start, ws, we time.Time, stop *atomic.Bool, rec *loadRec) {
	interval := time.Second / queryRate
	due := start
	for i := 0; !stop.Load(); i++ {
		sleepUntil(due)
		_, err := cli.Query(queryList[i%len(queryList)], eps)
		rec.attempted++
		if err != nil {
			rec.err = err
			return
		}
		if !due.Before(ws) && due.Before(we) {
			rec.queries = append(rec.queries, sample{due, time.Since(due)})
		}
		due = due.Add(interval)
	}
}

// quiet collects garbage before a timed phase, so the load process's
// own collector rarely runs inside one.
func quiet() { runtime.GC() }

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sampleTick reads the server's CPU time and credited-update counter.
func sampleTick(s *server) (tick, metricsSnap, error) {
	p, err := readProc(s.pid())
	if err != nil {
		return tick{}, nil, err
	}
	m, err := s.scrapeMetrics()
	if err != nil {
		return tick{}, nil, err
	}
	return tick{p, m.scalar(creditedSeries)}, m, nil
}

// timedWindow runs the load through the warm-up and a timed window of
// seconds, sampling the server once a second; the first and last
// samples bracket the window. On query-mix the writer runs open loop,
// with the query connection beside it if queries is set.
func timedWindow(cfg config, srv *server, conns []*conn, o *observed, seconds int, queries bool) error {
	var qcli *distributed.Client
	if queries {
		var err error
		if qcli, err = distributed.Dial(srv.addr); err != nil {
			return err
		}
		defer qcli.Close()
	}
	quiet()
	start := time.Now()
	ws := start.Add(warmup)
	we := ws.Add(time.Duration(seconds) * time.Second)
	var stop atomic.Bool
	var wg sync.WaitGroup
	recs := make([]*loadRec, len(conns)+1)
	for i := range recs {
		recs[i] = &loadRec{}
	}
	for i, c := range conns {
		wg.Add(1)
		go func(c *conn, rec *loadRec) {
			defer wg.Done()
			if cfg.w.queryMix() {
				openLoop(c, start, ws, we, &stop, rec)
			} else {
				closedLoop(c, ws, we, &stop, rec)
			}
		}(c, recs[i])
	}
	if qcli != nil {
		wg.Add(1)
		go func(rec *loadRec) {
			defer wg.Done()
			queryLoop(qcli, start, ws, we, &stop, rec)
		}(recs[len(conns)])
	}
	err := func() error {
		for i := 0; i <= seconds; i++ {
			sleepUntil(ws.Add(time.Duration(i) * time.Second))
			t, m, err := sampleTick(srv)
			if err != nil {
				return err
			}
			o.ticks = append(o.ticks, t)
			if i > 0 && i < seconds {
				continue
			}
			var mu float64
			if cfg.trace {
				if mu, err = srv.mutexDelaySeconds(); err != nil {
					return err
				}
			}
			if i == 0 {
				o.window.before, o.procBefore, o.mutexBefore = m, t.proc, mu
			} else {
				o.window.after, o.procAfter, o.mutex = m, t.proc, mu
			}
		}
		return nil
	}()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}
	o.acks = series{from: ws, to: we}
	o.queries = series{from: ws, to: we}
	for _, rec := range recs {
		o.acks.s = append(o.acks.s, rec.acks...)
		o.queries.s = append(o.queries.s, rec.queries...)
		o.rtts = append(o.rtts, rec.rtts...)
		o.lates = append(o.lates, rec.lates...)
		o.attempted += rec.attempted
		if rec.err != nil {
			o.fail("operation failed: %v", rec.err)
		}
	}
	return nil
}

// drive runs set-up, the timed window, the quiescent probes and every
// correctness check against live sketchd processes.
func drive(cfg config, rings []*ring) (*observed, error) {
	w := cfg.w
	o := &observed{}
	walDir := func(i int) string {
		if !w.wal {
			return ""
		}
		return filepath.Join(cfg.work, "wal-"+strconv.Itoa(i))
	}

	// Half the set-ups run before the window and half after the last
	// probe, so setup_s samples the host at both ends of the run. The
	// last server of the first half is the one measured.
	const head = setupRepeats / 2
	setUps := func(from, to int) (*server, []*conn, error) {
		for i := from; i < to; i++ {
			s, cs, d, err := setUp(cfg, walDir(i), rings)
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			o.setups = append(o.setups, d)
			o.attempted++ // the set-up batch
			if i == head-1 {
				return s, cs, nil
			}
			closeConns(cs)
			s.kill()
			os.RemoveAll(walDir(i))
		}
		return nil, nil, nil
	}
	srv, conns, err := setUps(0, head)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	fmt.Fprintf(os.Stderr, "perfbench: sketchd cpus %s\n", cpusAllowed(strconv.Itoa(srv.pid())))

	if err := timedWindow(cfg, srv, conns, o, cfg.seconds, w.queryMix()); err != nil {
		return nil, err
	}
	if cfg.trace && w.queryMix() {
		// The writer alone: the server's cost per batch without the
		// queries' CPU, which the traced apply path should add up to.
		wo := &observed{}
		if err := timedWindow(cfg, srv, conns, wo, writerOnlySeconds, false); err != nil {
			return nil, err
		}
		o.writerOnly = wo
		o.attempted += wo.attempted
		o.failed += wo.failed
		o.failures = append(o.failures, wo.failures...)
	}
	o.lags = lagProbe(srv, conns[0], o)

	// Every session's final heartbeat total equals what it sent.
	cursors := make([]int, len(conns))
	for i, c := range conns {
		o.attempted++
		acc, err := c.sess.Heartbeat()
		if err != nil {
			o.fail("session %d heartbeat: %v", i, err)
		} else if acc != c.sent {
			o.fail("session %d: coordinator accepted %d updates, session sent %d", i, acc, c.sent)
		}
		cursors[i] = c.cursor
	}
	closeConns(conns)

	ref, err := buildReference(w, rings, cursors)
	if err != nil {
		return nil, err
	}
	o.checkReference(ref)
	ests, probe := queryProbe(srv, ref, o)
	if !w.queryMix() {
		o.queries = probe
	}

	if w.wal {
		o.recoveryRate = recoverAndCheck(cfg, srv, walDir(head-1), ests, 1, o)
		srv = nil
	} else {
		srv.kill()
		srv = nil
		o.recoveryRate = recoveryProbe(cfg, rings[0], o)
	}
	if _, _, err := setUps(head, setupRepeats); err != nil {
		return nil, err
	}
	return o, nil
}

// lagProbe measures result lag: one standing expression re-evaluated
// after every batch, and lagRounds batches sent one at a time from
// session 0, each timed from its send to its round's result.
func lagProbe(s *server, c *conn, o *observed) (lags series) {
	quiet()
	defer o.lagProbe.close(s, o)
	if o.lagProbe.open(s, o) != nil {
		return lags
	}
	lags.from = time.Now()
	defer func() { lags.to = time.Now() }()
	wcli, err := distributed.Dial(s.addr)
	if err != nil {
		o.fail("lag probe dial: %v", err)
		return lags
	}
	defer wcli.Close()
	ch, err := wcli.Watch([]string{"A | B"}, eps, batchSize, 0)
	if err != nil {
		o.fail("lag probe watch: %v", err)
		return lags
	}
	for i := 0; i < lagRounds; i++ {
		o.attempted++
		t0, _, err := c.send()
		if err != nil {
			o.fail("lag probe send: %v", err)
			return lags
		}
		select {
		case ev := <-ch:
			if ev.Err != "" {
				o.fail("lag probe round: %s", ev.Err)
				return lags
			}
			lags.s = append(lags.s, sample{t0, time.Since(t0)})
		case <-time.After(10 * time.Second):
			o.fail("lag probe: no round within 10s")
			return lags
		}
	}
	return lags
}

// queryAll runs the query list once, recording each query's latency
// in lat when it is non-nil.
func queryAll(cli *distributed.Client, lat *series) ([]core.Estimate, error) {
	out := make([]core.Estimate, len(queryList))
	for i, q := range queryList {
		t0 := time.Now()
		est, err := cli.Query(q, eps)
		if lat != nil {
			lat.s = append(lat.s, sample{t0, time.Since(t0)})
		}
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", q, err)
		}
		out[i] = est
	}
	return out, nil
}

// queryProbe runs queryRounds rounds of the query list on the quiet
// server; every answer must be bit-identical to the reference. It
// returns the estimates and the latency samples.
func queryProbe(s *server, ref *reference, o *observed) ([]core.Estimate, series) {
	quiet()
	defer o.queryProbe.close(s, o)
	if o.queryProbe.open(s, o) != nil {
		return nil, series{}
	}
	lat := series{from: time.Now()}
	cli, err := distributed.Dial(s.addr)
	if err != nil {
		o.fail("query probe dial: %v", err)
		return nil, lat
	}
	defer cli.Close()
	var first []core.Estimate
	for r := 0; r < queryRounds; r++ {
		o.attempted += int64(len(queryList))
		ests, err := queryAll(cli, &lat)
		if err != nil {
			o.fail("%v", err)
			break
		}
		for i, est := range ests {
			if est != ref.ests[i] {
				o.fail("query %q: coordinator %+v, reference %+v", queryList[i], est, ref.ests[i])
			}
		}
		if first == nil {
			first = ests
		}
	}
	lat.to = time.Now()
	return first, lat
}

// restart kill -9s s, restarts sketchd on the same WAL, and returns
// the new server and the replay rate: replayed updates per second from
// exec to listening.
func restart(cfg config, s *server, walDir string) (*server, float64, error) {
	s.kill()
	s2, err := startServer(cfg, serverArgs(cfg, walDir))
	if err != nil {
		return nil, 0, err
	}
	n, err := strconv.ParseFloat(s2.findLogField("durability enabled", "replayed_updates"), 64)
	if err != nil || n == 0 {
		s2.kill()
		return nil, 0, fmt.Errorf("restart replayed no updates:\n%s", s2.log())
	}
	return s2, n / s2.listening.Sub(s2.started).Seconds(), nil
}

// recoverAndCheck kill -9s the durable server, restarts it on the same
// WAL restarts times, and checks that every recovery answers the query
// list bit-identically to before. It returns the median replay rate.
func recoverAndCheck(cfg config, s *server, walDir string, before []core.Estimate, restarts int, o *observed) float64 {
	var rates []float64
	for i := 0; i < restarts; i++ {
		s2, rate, err := restart(cfg, s, walDir)
		if err != nil {
			o.fail("recovery: %v", err)
			break
		}
		s = s2
		rates = append(rates, rate)
		o.attempted += int64(len(queryList))
		after, err := queryServer(s.addr)
		if err != nil {
			o.fail("after recovery: %v", err)
			break
		}
		for j := range after {
			if before == nil || after[j] != before[j] {
				o.fail("query %q after kill -9 and recovery: %+v, before %+v", queryList[j], after[j], before)
			}
		}
	}
	s.kill()
	return medianFloat(rates)
}

// queryServer runs the query list once on a fresh connection.
func queryServer(addr string) ([]core.Estimate, error) {
	cli, err := distributed.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	return queryAll(cli, nil)
}

// recoveryProbe measures recovery on workloads that run without a WAL:
// a durable server logs probeBatches batches of session 0's ring, is
// killed with SIGKILL and restarted on the same WAL.
func recoveryProbe(cfg config, r *ring, o *observed) float64 {
	probe := cfg
	probe.w.wal = true
	dir := filepath.Join(cfg.work, "wal-probe")
	s, err := startServer(probe, serverArgs(probe, dir))
	if err != nil {
		o.fail("recovery probe: %v", err)
		return 0
	}
	c, err := openConn(s.addr, 0, r)
	if err != nil {
		s.kill()
		o.fail("recovery probe: %v", err)
		return 0
	}
	for i := 0; i < probeBatches; i++ {
		o.attempted++
		if _, _, err := c.send(); err != nil {
			c.cli.Close()
			s.kill()
			o.fail("recovery probe send: %v", err)
			return 0
		}
	}
	c.cli.Close()
	ref, err := buildReference(probe.w, []*ring{r}, []int{probeBatches})
	if err != nil {
		s.kill()
		o.fail("recovery probe reference: %v", err)
		return 0
	}
	o.attempted += int64(len(queryList))
	before, err := queryServer(s.addr)
	if err != nil {
		s.kill()
		o.fail("recovery probe: %v", err)
		return 0
	}
	for i := range before {
		if before[i] != ref.ests[i] {
			o.fail("recovery probe query %q: coordinator %+v, reference %+v", queryList[i], before[i], ref.ests[i])
		}
	}
	return recoverAndCheck(probe, s, dir, before, probeRestarts, o)
}
