// Branch-and-bound. The search tree is explored by a pool of workers over
// per-worker subproblem deques: each worker pops its own deque LIFO
// (depth-first) and steals from the head of a sibling's deque when it runs
// dry (breadth-ish, so stolen work is a big subtree, not a leaf). One
// worker (Parallelism 0 or 1) runs on the calling goroutine and explores
// the tree depth-first, the smaller branch first. One mutex + condition
// variable coordinates everything; the only other shared state is an
// atomic stop flag that the simplex interrupt hook polls lock-free once
// per pivot when several workers search, so the first worker to reach a
// verdict kills every in-flight LP promptly.
//
// Termination uses a pending counter (subproblems queued or in flight):
// a worker that finds every deque empty while pending is zero has proven
// exhaustion — every subproblem was refuted — and closes the search as
// infeasible. The first close wins, whether it carries a witness, an
// exhaustion verdict, or an error; later closes are no-ops.
//
// Node accounting stays exact under parallelism: workers reserve a node
// under the mutex before starting its LP, and a reservation that would
// exceed MaxNodes closes the search with ErrNodeLimit instead, so
// Result.Nodes never exceeds the budget no matter how many workers race.
// A reservation first checks the context, so a cancelled search charges
// no node whose LP never started.
package ilp

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"xic/internal/simplex"
)

// psearch is the shared state of one search.
type psearch struct {
	spec  *problemSpec
	limit int

	// stop mirrors closed for lock-free reads: simplex pivots poll it via
	// the solveLP stop hook, where taking mu would serialize the workers.
	stop atomic.Bool

	// limitErr is the ErrNodeLimit verdict, built once up front so the
	// hot reservation path never formats an error under the mutex.
	limitErr error

	mu       sync.Mutex
	cond     *sync.Cond // signalled on push, exhaustion, and close
	deques   [][]*node  // per-worker: own pops at the tail, steals at the head
	pending  int        // subproblems queued or in flight
	nodes    int        // LPs started; reserved under mu, never exceeds limit
	closed   bool
	canceled bool       // err is the context's, met at a reservation
	found    []*big.Int // witness of the winning close; nil = infeasible/error
	err      error

	// LP work counters, merged into Stats after the workers join.
	pivots         int
	fastPivots     int
	exactFallbacks int
	steals         int
}

// search explores spec with workers workers and returns the first
// verdict: identical feasibility verdicts at any worker count, a valid
// witness, exact node accounting against opt.maxNodes(), and non-nil
// Results on error paths.
func search(ctx context.Context, spec *problemSpec, opt *Options, fixed []*big.Int, stats Stats, workers int) (*Result, error) {
	ps := &psearch{
		spec:   spec,
		limit:  opt.maxNodes(),
		deques: make([][]*node, workers),
	}
	ps.cond = sync.NewCond(&ps.mu)
	ps.limitErr = fmt.Errorf("%w (%d nodes)", ErrNodeLimit, ps.limit)
	root := &node{lo: make([]*big.Int, spec.n), hi: make([]*big.Int, spec.n)}
	ps.deques[0] = append(ps.deques[0], root)
	ps.pending = 1

	if workers == 1 {
		// A lone worker closes the search itself, between LPs, so it
		// needs no stop hook and no goroutine.
		ps.worker(ctx, 0, nil)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ps.worker(ctx, w, ps.stop.Load)
			}(w)
		}
		wg.Wait()
	}

	stats.Pivots += ps.pivots
	stats.FastPivots += ps.fastPivots
	stats.ExactFallbacks += ps.exactFallbacks
	stats.Steals += ps.steals
	if ps.canceled {
		return &Result{Nodes: ps.nodes, Stats: stats}, fmt.Errorf("ilp: search aborted after %d nodes: %w", ps.nodes, ps.err)
	}
	if ps.err != nil {
		return &Result{Nodes: ps.nodes, Stats: stats}, ps.err
	}
	// With no conditional constraints the root LP decides whenever it is
	// infeasible or integral; a one-node decision on such a system is the
	// structural fast path the serving counters report.
	stats.FastPath = len(spec.implications) == 0 && ps.nodes == 1
	if ps.found != nil {
		mergeFixed(ps.found, fixed)
		return &Result{Feasible: true, Values: ps.found, Nodes: ps.nodes, Stats: stats}, nil
	}
	return &Result{Nodes: ps.nodes, Stats: stats}, nil
}

// worker is one searcher: pop/steal a subproblem, solve its LP
// relaxation, then refute it, branch on it, or close the whole search.
func (ps *psearch) worker(ctx context.Context, w int, stop func() bool) {
	for {
		nd, ok := ps.next(ctx, w)
		if !ok {
			return
		}
		sol := solveLP(ctx, ps.spec, nd, stop)
		ps.recordLP(sol)
		switch sol.Status {
		case simplex.Interrupted:
			// Either a sibling closed the search (stop flag) — nothing to
			// do — or the context fired, which is this worker's to report.
			if err := ctx.Err(); err != nil {
				ps.closeWith(func(nodes int) ([]*big.Int, error) {
					return nil, fmt.Errorf("ilp: search aborted mid-LP after %d nodes: %w", nodes, err)
				})
			}
			ps.finish(w)
		case simplex.Internal:
			ps.closeWith(func(nodes int) ([]*big.Int, error) {
				return nil, fmt.Errorf("%w (after %d nodes)", ErrInternal, nodes)
			})
			ps.finish(w)
		case simplex.Unbounded:
			// Minimizing Σx over x ≥ 0 is bounded below: a solver bug.
			ps.closeWith(func(nodes int) ([]*big.Int, error) {
				return nil, fmt.Errorf("%w: LP relaxation reported unbounded for a bounded objective (after %d nodes)", ErrInternal, nodes)
			})
			ps.finish(w)
		case simplex.Infeasible:
			ps.finish(w)
		default: // Optimal
			if j := firstFractional(sol.X); j >= 0 {
				left, right := branchChildren(nd, j, sol.X[j])
				// Tail order: left pops next, so the smaller value is
				// explored first and witnesses stay small.
				ps.finish(w, right, left)
				continue
			}
			values := integralValues(ps.spec, sol)
			if imp, ok := violatedImplication(ps.spec, values); ok {
				zero, pos := implicationChildren(nd, imp)
				ps.finish(w, pos, zero)
				continue
			}
			ps.closeWith(func(nodes int) ([]*big.Int, error) { return values, nil })
			ps.finish(w)
		}
	}
}

// next blocks until worker w has a subproblem reserved against the node
// budget, or the search is over (closed, exhausted, cancelled or out of
// budget) — then ok is false and the worker exits.
//
//xic:hotpath
func (ps *psearch) next(ctx context.Context, w int) (nd *node, ok bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		if ps.closed {
			return nil, false
		}
		if own := ps.deques[w]; len(own) > 0 {
			nd = own[len(own)-1]
			ps.deques[w] = own[:len(own)-1]
			return ps.reserveLocked(ctx, nd)
		}
		if nd = ps.stealLocked(w); nd != nil {
			ps.steals++
			return ps.reserveLocked(ctx, nd)
		}
		if ps.pending == 0 {
			// Every subproblem was refuted: the system is infeasible.
			ps.closeLocked(nil, nil)
			return nil, false
		}
		ps.cond.Wait()
	}
}

// stealLocked takes the head (oldest, largest subtree) of the longest
// sibling deque. Caller holds mu.
//
//xic:hotpath
func (ps *psearch) stealLocked(w int) *node {
	victim, best := -1, 0
	for v := range ps.deques {
		if v != w && len(ps.deques[v]) > best {
			victim, best = v, len(ps.deques[v])
		}
	}
	if victim < 0 {
		return nil
	}
	nd := ps.deques[victim][0]
	ps.deques[victim] = ps.deques[victim][1:]
	return nd
}

// reserveLocked charges one node against the budget. It closes the search
// instead with the context's error when the context is done, so a
// reserved node always starts its LP, and with ErrNodeLimit when the
// budget is already spent. Caller holds mu.
//
//xic:hotpath
func (ps *psearch) reserveLocked(ctx context.Context, nd *node) (*node, bool) {
	if err := ctx.Err(); err != nil {
		ps.canceled = true
		ps.closeLocked(nil, err)
		return nil, false
	}
	if ps.nodes >= ps.limit {
		ps.closeLocked(nil, ps.limitErr)
		return nil, false
	}
	ps.nodes++
	return nd, true
}

// finish retires the subproblem worker w was processing and queues its
// children (if any) on w's deque.
//
//xic:hotpath
func (ps *psearch) finish(w int, children ...*node) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.pending += len(children) - 1
	ps.deques[w] = append(ps.deques[w], children...) //xic:ignore hotalloc amortized deque growth: appends reuse capacity across the whole search
	// Wake stealers when work appeared, and idle workers when pending hit
	// zero so one of them can run the exhaustion close.
	ps.cond.Broadcast()
}

// recordLP accumulates one LP solve's pivot work.
func (ps *psearch) recordLP(sol *simplex.Solution) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.pivots += sol.Pivots
	ps.fastPivots += sol.FastPivots
	if sol.ExactFallback {
		ps.exactFallbacks++
	}
}

// closeWith ends the search with a verdict built under the mutex (so it
// can read the exact node count). The first close wins.
func (ps *psearch) closeWith(verdict func(nodes int) ([]*big.Int, error)) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return
	}
	found, err := verdict(ps.nodes)
	ps.closeLocked(found, err)
}

// closeLocked records the winning verdict, flips the lock-free stop flag
// so in-flight LPs interrupt, and wakes every waiting worker. Caller holds
// mu; later calls are no-ops.
func (ps *psearch) closeLocked(found []*big.Int, err error) {
	if ps.closed {
		return
	}
	ps.closed = true
	ps.found = found
	ps.err = err
	ps.stop.Store(true)
	ps.cond.Broadcast()
}
