// Package serve is the networked serving tier over the in-process
// engine: a hardened HTTP server (timeouts, graceful signal-driven
// drain), an HTTP/JSON query handler with admission control, and a
// request coalescer that turns concurrently-arriving single lookups
// into batched FindBatchTagged waves so the PR 1 batch pipeline
// amortizes per-query cost across connections (DESIGN.md §11).
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/concurrent"
	"repro/internal/kv"
)

// Typed admission errors: the HTTP layer maps ErrOverloaded to 429 (the
// client should back off and retry) and ErrDraining to 503 (this server
// is going away; try another replica).
var (
	ErrOverloaded = errors.New("serve: overloaded: coalescer queue full")
	ErrDraining   = errors.New("serve: draining: server is shutting down")
)

// DefaultWave is the default (and maximum) coalescing wave width — the
// 256-lane batch the core pipeline was tuned for.
const DefaultWave = 256

// CoalescerConfig parameterises NewCoalescer. The zero value gets the
// documented defaults.
type CoalescerConfig struct {
	// MaxWave caps how many queries one dispatch wave carries
	// (default/max 256 — the core batch pipeline's lane width).
	MaxWave int
	// Queue bounds how many requests may be waiting for a wave slot
	// (default 4×MaxWave). Arrivals beyond it are rejected with
	// ErrOverloaded — admission control, not unbounded queueing.
	Queue int
}

func (c CoalescerConfig) withDefaults() CoalescerConfig {
	if c.MaxWave <= 0 || c.MaxWave > DefaultWave {
		c.MaxWave = DefaultWave
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxWave
	}
	return c
}

// CoalescerStats is a point-in-time counter snapshot.
type CoalescerStats struct {
	Requests uint64 // admitted single-query requests
	Rejected uint64 // turned away with ErrOverloaded
	Waves    uint64 // dispatched batches
	Batched  uint64 // sum of wave widths (Batched/Waves = mean wave)
	MaxWave  int    // widest wave observed
}

type cres struct {
	rank int
	tag  uint64
}

type creq[K kv.Key] struct {
	key  K
	done chan cres
}

type waveScratch[K kv.Key] struct {
	keys  []K
	outs  []chan cres
	ranks []int
}

// Coalescer batches concurrently-arriving point lookups into waves of
// up to MaxWave queries, answered by ONE concurrent.Index.FindBatchTagged
// call per wave: one atomic snapshot load, one staged predict→gather→
// probe pipeline pass, results fanned back to the individual waiters
// with the snapshot's version tag.
//
// It flat-combines rather than running a dispatcher goroutine: every
// request enqueues itself, then tries to take the combiner lock. The
// winner services the whole queue in waves (its own request included);
// losers park on their buffered result channel until the active
// combiner answers them. An idle coalescer therefore costs one
// uncontended TryLock over the direct path, while under concurrency one
// request thread batches for everyone arriving during its wave — wave
// width tracks concurrency with no added latency and no cross-goroutine
// wakeup on the critical path.
type Coalescer[K kv.Key] struct {
	ix   *concurrent.Index[K]
	cfg  CoalescerConfig
	reqs chan creq[K]

	// combine is the combiner lock: held by whichever request thread is
	// currently servicing the queue.
	combine sync.Mutex

	// mu guards closed against racing enqueues: Find holds the read
	// side across its closed-check + send, Close flips closed under the
	// write side, so after Close acquires it no new request can reach
	// the queue and Close's final drain is complete. closedHint mirrors
	// closed for the no-enqueue fast path, which needs only a best-effort
	// check: a fast-path Find racing Close holds the combiner lock, so
	// Close's final drain waits for it either way.
	mu         sync.RWMutex
	closed     bool
	closedHint atomic.Bool

	requests atomic.Uint64
	rejected atomic.Uint64
	waves    atomic.Uint64
	batched  atomic.Uint64
	maxWave  atomic.Int64

	chanPool    sync.Pool // result channels (cap 1), reused on the happy path
	scratchPool sync.Pool // per-combine wave scratch
}

// NewCoalescer builds a coalescer over ix. No goroutines are started;
// request threads combine for each other.
func NewCoalescer[K kv.Key](ix *concurrent.Index[K], cfg CoalescerConfig) *Coalescer[K] {
	cfg = cfg.withDefaults()
	c := &Coalescer[K]{
		ix:   ix,
		cfg:  cfg,
		reqs: make(chan creq[K], cfg.Queue),
	}
	c.chanPool.New = func() any { return make(chan cres, 1) }
	c.scratchPool.New = func() any {
		return &waveScratch[K]{
			keys: make([]K, 0, cfg.MaxWave),
			outs: make([]chan cres, 0, cfg.MaxWave),
		}
	}
	return c
}

// Find answers one point lookup through the next wave. It blocks until
// the wave carrying it completes, ctx is cancelled, or admission fails:
// ErrOverloaded when the queue is full, ErrDraining after Close. The
// returned tag is the snapshot version that produced rank — the
// correlation handle every oracle check rides.
func (c *Coalescer[K]) Find(ctx context.Context, key K) (rank int, tag uint64, err error) {
	// Fast path: nobody is combining, so self-serve with one scalar
	// FindTagged, without touching the queue or a result channel — the
	// uncontended coalesced lookup costs one TryLock over the direct
	// path, and an empty queue is not even drained, so it takes no wave
	// scratch either. Anyone arriving while we hold the lock enqueues and
	// is drained below (or rescues itself via its own TryLock after we
	// release).
	if !c.closedHint.Load() && c.combine.TryLock() {
		c.requests.Add(1)
		rank, tag := c.ix.FindTagged(key)
		c.waves.Add(1)
		c.batched.Add(1)
		if c.maxWave.Load() == 0 {
			c.maxWave.CompareAndSwap(0, 1)
		}
		for {
			if len(c.reqs) > 0 {
				c.runWaves()
			}
			c.combine.Unlock()
			if len(c.reqs) == 0 || !c.combine.TryLock() {
				break
			}
		}
		return rank, tag, nil
	}
	done := c.chanPool.Get().(chan cres)
	r := creq[K]{key: key, done: done}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		c.chanPool.Put(done)
		return 0, 0, ErrDraining
	}
	select {
	case c.reqs <- r:
		c.mu.RUnlock()
	default:
		c.mu.RUnlock()
		c.rejected.Add(1)
		c.chanPool.Put(done)
		return 0, 0, ErrOverloaded
	}
	c.requests.Add(1)
	// Enqueued. Become the combiner if nobody is; otherwise the active
	// combiner is obliged to answer us (see the hand-off loop below: a
	// combiner never exits while the queue is non-empty without another
	// combiner having taken over).
	if c.combine.TryLock() {
		for {
			c.runWaves()
			c.combine.Unlock()
			// Hand-off check: a request that enqueued while we held the
			// lock but after our last drain would otherwise be stranded
			// — it saw TryLock fail and parked. Re-take the lock and
			// drain again; if somebody else wins the race they inherit
			// the same obligation.
			if len(c.reqs) == 0 || !c.combine.TryLock() {
				break
			}
		}
	}
	select {
	case res := <-done:
		c.chanPool.Put(done)
		return res.rank, res.tag, nil
	case <-ctx.Done():
		// The combiner may still deliver into done; it is buffered so
		// nobody blocks, but the channel cannot be pooled again.
		return 0, 0, ctx.Err()
	}
}

// runWaves services the queue in MaxWave-wide batches until it is
// empty. Caller holds the combiner lock.
//
//shift:lockfree
func (c *Coalescer[K]) runWaves() {
	s := c.scratchPool.Get().(*waveScratch[K])
	for {
		s.keys, s.outs = s.keys[:0], s.outs[:0]
		c.collect(s)
		if len(s.keys) == 0 {
			break
		}
		var tag uint64
		s.ranks, tag = c.ix.FindBatchTagged(s.keys, s.ranks[:0])
		for i, out := range s.outs {
			//shift:allow-lock(each done channel is buffered with capacity 1 and receives exactly one result, so the send never blocks)
			out <- cres{rank: s.ranks[i], tag: tag}
		}
		c.waves.Add(1)
		c.batched.Add(uint64(len(s.keys)))
		for {
			cur := c.maxWave.Load()
			if int64(len(s.keys)) <= cur || c.maxWave.CompareAndSwap(cur, int64(len(s.keys))) {
				break
			}
		}
	}
	c.scratchPool.Put(s)
}

// collect greedily drains whatever is queued right now, up to MaxWave.
func (c *Coalescer[K]) collect(s *waveScratch[K]) {
	for len(s.keys) < c.cfg.MaxWave {
		select {
		case r := <-c.reqs:
			s.keys = append(s.keys, r.key)
			s.outs = append(s.outs, r.done)
		default:
			return
		}
	}
}

// Stats snapshots the counters.
func (c *Coalescer[K]) Stats() CoalescerStats {
	return CoalescerStats{
		Requests: c.requests.Load(),
		Rejected: c.rejected.Load(),
		Waves:    c.waves.Load(),
		Batched:  c.batched.Load(),
		MaxWave:  int(c.maxWave.Load()),
	}
}

// QueueDepth reports how many admitted requests are waiting for a wave.
func (c *Coalescer[K]) QueueDepth() int { return len(c.reqs) }

// Close drains the coalescer: new Finds fail with ErrDraining, and
// every already-admitted request is still answered (graceful drain
// finishes accepted work — it does not error it). Idempotent.
func (c *Coalescer[K]) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closedHint.Store(true)
	c.mu.Unlock()
	// Wait out the active combiner, then answer any straggler that
	// enqueued after its last drain. No new enqueue can happen now
	// (closed was published under the lock every enqueue reads).
	c.combine.Lock()
	c.runWaves()
	c.combine.Unlock()
}
