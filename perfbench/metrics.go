package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of ds by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// sample is one latency observation, stamped with when it started.
type sample struct {
	at time.Time
	d  time.Duration
}

// series is the latency samples of one measuring span.
type series struct {
	from, to time.Time
	s        []sample
}

// maxSlices bounds how many equal time slices a series is cut into.
const maxSlices = 10

// slices cuts the series into k equal time slices.
func (x *series) slices(k int) [][]time.Duration {
	out := make([][]time.Duration, k)
	width := x.to.Sub(x.from) / time.Duration(k)
	for _, s := range x.s {
		i := 0
		if width > 0 {
			i = min(max(int(s.at.Sub(x.from)/width), 0), k-1)
		}
		out[i] = append(out[i], s.d)
	}
	return out
}

// quantile is the median, over up to maxSlices equal time slices of
// the span, of each slice's q-quantile; it uses as many slices as keep
// ten samples beyond q in each, so a transient host stall moves it
// little.
func (x *series) quantile(q float64) time.Duration {
	k := min(max(int(float64(len(x.s))*(1-q)/10), 1), maxSlices)
	var qs []float64
	for _, sl := range x.slices(k) {
		if len(sl) > 0 {
			qs = append(qs, float64(quantile(sl, q)))
		}
	}
	return time.Duration(medianFloat(qs))
}

// rate is the median over the time slices of samples per second.
func (x *series) rate() float64 {
	k := min(max(len(x.s)/20, 1), maxSlices)
	width := x.to.Sub(x.from).Seconds() / float64(k)
	var rs []float64
	for _, sl := range x.slices(k) {
		rs = append(rs, ratio(float64(len(sl)), width))
	}
	return medianFloat(rs)
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// bracket is a pair of /metrics scrapes around one measuring span.
type bracket struct{ before, after metricsSnap }

func (b *bracket) open(s *server, o *observed) error {
	var err error
	if b.before, err = s.scrapeMetrics(); err != nil {
		o.fail("scrape /metrics: %v", err)
	}
	return err
}

// close takes the second scrape, if open took the first.
func (b *bracket) close(s *server, o *observed) {
	if b.before == nil {
		return
	}
	var err error
	if b.after, err = s.scrapeMetrics(); err != nil {
		o.fail("scrape /metrics: %v", err)
	}
}

// delta is a /metrics counter's growth across the span.
func (b *bracket) delta(name string) float64 { return b.after.scalar(name) - b.before.scalar(name) }

func (b *bracket) histDelta(name string) (count, sum float64) {
	a, p := b.after.hist(name), b.before.hist(name)
	return float64(a.Count) - float64(p.Count), a.Sum - p.Sum
}

const creditedSeries = "coord_updates_credited_total"

func (o *observed) credited() float64 { return o.window.delta(creditedSeries) }
func (o *observed) cpuSec() float64   { return o.procAfter.cpuSec - o.procBefore.cpuSec }

func (o *observed) cpuUSPerUpdate() float64 { return ratio(o.cpuSec()*1e6, o.credited()) }

// cpuUtil is server CPU seconds per second of the window.
func (o *observed) cpuUtil() float64 {
	return ratio(o.cpuSec(), o.procAfter.at.Sub(o.procBefore.at).Seconds())
}

// serverUSPerBatch is the server's cost of one batch in the window: CPU
// time plus the fsync wait it blocks on.
func (o *observed) serverUSPerBatch() float64 {
	_, fsyncSec := o.window.histDelta("wal_fsync_seconds")
	return ratio((o.cpuSec()+fsyncSec)*1e6, o.window.delta("coord_raw_update_batches_total"))
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tickRates returns the median per-second accepted-update rate and the
// median server CPU µs per accepted update over the window's ticks,
// which keeps a transient stall of the host out of both.
func (o *observed) tickRates() (perSec, cpuPerUpdate float64) {
	var rates, cpus []float64
	for i := 1; i < len(o.ticks); i++ {
		a, b := o.ticks[i-1], o.ticks[i]
		n := b.credited - a.credited
		rates = append(rates, ratio(n, b.proc.at.Sub(a.proc.at).Seconds()))
		cpus = append(cpus, ratio((b.proc.cpuSec-a.proc.cpuSec)*1e6, n))
	}
	return medianFloat(rates), medianFloat(cpus)
}

func endToEndMetrics(o *observed) map[string]metric {
	perSec, cpuPerUpdate := o.tickRates()
	return map[string]metric{
		"updates_per_s":          {perSec, "1/s"},
		"ack_p50_us":             {us(o.acks.quantile(0.50)), "us"},
		"ack_p99_us":             {us(o.acks.quantile(0.99)), "us"},
		"cpu_us_per_update":      {cpuPerUpdate, "us"},
		"query_p50_us":           {us(o.queries.quantile(0.50)), "us"},
		"query_p99_us":           {us(o.queries.quantile(0.99)), "us"},
		"queries_per_s":          {o.queries.rate(), "1/s"},
		"result_lag_p50_ms":      {us(o.lags.quantile(0.50)) / 1e3, "ms"},
		"result_lag_p90_ms":      {us(o.lags.quantile(0.90)) / 1e3, "ms"},
		"recovery_updates_per_s": {o.recoveryRate, "1/s"},
		"rss_mb":                 {o.procAfter.hwmKB / 1024, "MB"},
		"setup_s":                {quantile(o.setups, 0.5).Seconds(), "s"},
	}
}

func layerMetrics(rings []*ring, o *observed, tr *traced) map[string]metric {
	nb := float64(tr.batches)
	perBatch := func(d time.Duration) float64 { return us(d) / nb }
	layer := func(name string) time.Duration {
		if st := tr.layers[name]; st != nil {
			return st.total
		}
		return 0
	}
	query := func(name string) float64 {
		if st := tr.queries[name]; st != nil && st.calls > 0 {
			return us(st.total) / float64(st.calls)
		}
		return 0
	}
	var fsyncs []time.Duration
	if st := tr.layers[spanSync]; st != nil {
		fsyncs = st.durs
	}
	var coalesce time.Duration // the layer pass's root self time
	if st := tr.layers[spanBatch]; st != nil {
		coalesce = st.self
	}
	children := layer(spanLookup) + layer(spanDigestBatch) + layer(spanInstall) +
		layer(spanAppend) + layer(spanSync) + layer(spanUpdateDigest)

	// The server's cost of one batch, which the traced self times should
	// add up to; on query-mix without the queries' CPU.
	win, qp, lp := &o.window, &o.queryProbe, &o.lagProbe
	srvBatches := win.delta("coord_raw_update_batches_total")
	e2ePerBatch, queryShare := o.serverUSPerBatch(), 0.0
	if wo := o.writerOnly; wo != nil {
		e2ePerBatch = wo.serverUSPerBatch()
		queryShare = 1 - ratio(wo.cpuUtil(), o.cpuUtil())
	}
	attributed := perBatch(tr.apply)

	handleN, handleSec := win.histDelta("stream_handle_seconds")
	handle := ratio(handleSec*1e6, handleN)
	counterPerUpdate := ratio(us(layer(spanUpdateDigest)), float64(tr.kept))
	var fill time.Duration
	for _, r := range rings {
		fill += r.fill
	}
	hits, misses := win.delta("coord_digest_cache_hits_total"), win.delta("coord_digest_cache_misses_total")
	chits, cmisses := qp.delta("coord_compile_cache_hits_total"), qp.delta("coord_compile_cache_misses_total")
	rounds, skipped := lp.delta("watch_rounds_total"), lp.delta("watch_rounds_skipped_total")
	return map[string]metric{
		"distributed.handle_us_per_batch":           {handle, "us"},
		"distributed.wire_us_per_batch":             {us(mean(o.rtts)) - handle, "us"},
		"distributed.lock_wait_us_per_batch":        {ratio((o.mutex-o.mutexBefore)*1e6, srvBatches), "us"},
		"distributed.apply_us_per_batch":            {attributed, "us"},
		"distributed.apply_self_us_per_batch":       {perBatch(tr.apply - children), "us"},
		"distributed.coalesce_us_per_batch":         {perBatch(coalesce), "us"},
		"distributed.coalesce_ratio":                {ratio(float64(tr.kept), float64(tr.updates)), "ratio"},
		"distributed.compile_cache_hit_ratio":       {ratio(chits, chits+cmisses), "ratio"},
		"distributed.estimate_us":                   {query(spanCoordEstimate), "us"},
		"distributed.view_apply_extra_us_per_batch": {perBatch(tr.applyView - tr.apply), "us"},
		"ingest.digest_cache_hit_ratio":             {ratio(hits, hits+misses), "ratio"},
		"ingest.cache_us_per_batch":                 {perBatch(layer(spanLookup) + layer(spanInstall)), "us"},
		"core.digest_us_per_miss":                   {ratio(us(layer(spanDigestBatch)), float64(tr.misses)), "us"},
		"core.counter_apply_us_per_update":          {counterPerUpdate, "us"},
		"core.batch_apply_us_per_update":            {ratio(us(tr.batchApply), float64(tr.batchApplied)), "us"},
		"core.floor_multiple":                       {ratio(o.cpuUSPerUpdate(), counterPerUpdate), "x"},
		"core.counter_bytes_per_l2":                 {ratio(tr.counterBytes, tr.l2Bytes), "x"},
		"core.compile_us":                           {query(spanCompile), "us"},
		"core.query_estimate_us":                    {query(spanQueryEstimate), "us"},
		"expr.parse_us":                             {query(spanParse), "us"},
		"wal.append_us_per_batch":                   {perBatch(layer(spanAppend)), "us"},
		"wal.fsync_us_p50":                          {us(quantile(fsyncs, 0.5)), "us"},
		"wal.bytes_per_update":                      {ratio(win.delta("wal_append_bytes_total"), o.credited()), "B"},
		"wal.replay_us_per_update":                  {ratio(us(tr.replay), float64(tr.replayUpdates)), "us"},
		"wal.digest_updates_us_per_batch":           {perBatch(tr.digestUpdates), "us"},
		"estimator.singleton_hit_ratio":             {ratio(qp.delta("estimator_singleton_hits_total"), qp.delta("estimator_singleton_checks_total")), "ratio"},
		"estimator.witnesses_per_estimate":          {ratio(qp.delta("estimator_witnesses_total"), qp.delta("estimator_estimates_total")), "count"},
		"watch.skipped_round_ratio":                 {ratio(skipped, rounds+skipped), "ratio"},
		"watch.evaluations_per_round":               {ratio(lp.delta("watch_evaluations_total"), rounds), "count"},
		"watch.dropped_results":                     {lp.delta("watch_results_dropped_total"), "count"},
		"server.cpu_util":                           {o.cpuUtil(), "ratio"},
		"server.query_cpu_share":                    {queryShare, "ratio"},
		"datagen.fill_us_per_batch":                 {ratio(us(fill), float64(len(rings)*ringBatches)), "us"},
		"datagen.writer_late_us_p99":                {us(quantile(o.lates, 0.99)), "us"},
		"trace.e2e_us_per_batch":                    {e2ePerBatch, "us"},
		"trace.unattributed_share":                  {1 - ratio(attributed, e2ePerBatch), "ratio"},
		"trace.overhead":                            {ratio(us(tr.tracedWall), us(tr.untracedWall)) - 1, "ratio"},
	}
}
