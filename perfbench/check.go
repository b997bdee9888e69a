package main

import (
	"fmt"
	"math"

	"setsketch/internal/core"
	"setsketch/internal/expr"
)

// reference is the in-process ground truth for everything sent: core
// families built from the net (stream, element) frequencies, which by
// linearity equal update-by-update application, and the exact answers.
type reference struct {
	ests  []core.Estimate // query list, estimated like the coordinator does
	exact []int           // query list, exact cardinalities
}

type pair struct {
	stream string
	elem   uint64
}

// refChunk bounds the digests DigestBatch materialises at once.
const refChunk = 4096

// buildReference replays the first cursors[i] batches of rings[i] into
// net frequencies and estimates the query list from them.
func buildReference(w workload, rings []*ring, cursors []int) (*reference, error) {
	net := make(map[pair]int64)
	for i, r := range rings {
		for k := 0; k < cursors[i]; k++ {
			for _, u := range r.batch(k) {
				net[pair{u.Stream, u.Elem}] += u.Delta
			}
		}
	}
	byStream := make(map[string][]uint64)
	deltas := make(map[string][]int64)
	live := make(map[string]map[uint64]bool)
	for p, d := range net {
		if d < 0 {
			return nil, fmt.Errorf("workload drove %s/%d to net frequency %d", p.stream, p.elem, d)
		}
		if d == 0 {
			continue
		}
		byStream[p.stream] = append(byStream[p.stream], p.elem)
		deltas[p.stream] = append(deltas[p.stream], d)
		if live[p.stream] == nil {
			live[p.stream] = make(map[uint64]bool)
		}
		live[p.stream][p.elem] = true
	}
	fams := make(map[string]*core.Family, len(w.streams))
	for _, name := range w.streams {
		fam, err := coins().NewFamily()
		if err != nil {
			return nil, err
		}
		elems, ds := byStream[name], deltas[name]
		for lo := 0; lo < len(elems); lo += refChunk {
			hi := min(lo+refChunk, len(elems))
			fam.UpdateBatchDigest(fam.DigestBatch(elems[lo:hi]), ds[lo:hi])
		}
		fams[name] = fam
	}
	ref := &reference{}
	for _, q := range queryList {
		node, err := expr.Parse(q)
		if err != nil {
			return nil, err
		}
		cq, err := core.CompileQuery(node)
		if err != nil {
			return nil, err
		}
		est, err := cq.Estimate(fams, eps, true, core.EstimateOptions{})
		if err != nil {
			return nil, fmt.Errorf("reference estimate %q: %w", q, err)
		}
		ref.ests = append(ref.ests, est)
		ref.exact = append(ref.exact, exactCount(node, live))
	}
	return ref, nil
}

// exactCount evaluates the expression over the live elements of the
// streams it references.
func exactCount(node expr.Node, live map[string]map[uint64]bool) int {
	names := expr.Streams(node)
	seen := make(map[uint64]bool)
	flags := make(map[string]bool, len(names))
	n := 0
	for _, s := range names {
		for e := range live[s] {
			if seen[e] {
				continue
			}
			seen[e] = true
			for _, t := range names {
				flags[t] = live[t][e]
			}
			if node.EvalBool(flags) {
				n++
			}
		}
	}
	return n
}

// errorSigmas is the (ε, δ) acceptance band: an estimate must lie
// within this many standard errors of the exact count (δ ≈ 6e-7 per
// query under the normal approximation).
const errorSigmas = 5

// sigma is the standard error the check allows. A witness estimate
// with few positive witnesses reports a binomial error near zero, so
// the witness share is floored at one observation in Valid: the
// smallest share r copies can resolve, which is where the paper's
// guarantee for small |E|/|U| stops.
func sigma(est core.Estimate) float64 {
	s := est.StdError
	if est.Valid > 0 && est.Union > 0 {
		q := math.Max(float64(est.Witnesses), 1) / float64(est.Valid)
		s = math.Max(s, est.Union*math.Sqrt(q*(1-q)/float64(est.Valid)))
	}
	return s
}

// checkReference checks the reference estimates against the exact
// counts; the coordinator's answers are compared to ref.ests elsewhere.
func (o *observed) checkReference(ref *reference) {
	for i, q := range queryList {
		est, exact := ref.ests[i], float64(ref.exact[i])
		if math.Abs(est.Value-exact) > errorSigmas*sigma(est) {
			o.fail("%q estimate %+v is more than %d standard errors from the exact %d",
				q, est, errorSigmas, ref.exact[i])
		}
	}
}
