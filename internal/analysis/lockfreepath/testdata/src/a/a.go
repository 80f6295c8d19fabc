package a

import (
	"sync"

	"dep"
)

var (
	mu   sync.Mutex
	ch   = make(chan int, 1)
	m    = map[int]int{}
	pool = sync.Pool{New: func() any { return new(int) }}
)

//shift:lockfree
func LockRoot() {
	mu.Lock() // want `acquires \(\*sync\.Mutex\)\.Lock on the lock-free path rooted at LockRoot`
	mu.Unlock()
}

//shift:lockfree
func SendRoot() {
	ch <- 1 // want `sends on a channel on the lock-free path rooted at SendRoot`
}

//shift:lockfree
func RecvRoot() int {
	return <-ch // want `receives from a channel on the lock-free path rooted at RecvRoot`
}

//shift:lockfree
func RangeRoot() int {
	s := 0
	for v := range ch { // want `ranges over a channel on the lock-free path rooted at RangeRoot`
		s += v
	}
	return s
}

//shift:lockfree
func MapRoot() {
	m[1] = 2 // want `writes to a map on the lock-free path rooted at MapRoot`
}

// PollRoot's channel ops live in a select with a default clause:
// non-blocking by construction, no finding.
//
//shift:lockfree
func PollRoot() int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// PoolRoot uses sync.Pool, whose locking is amortized slow-path only:
// sanctioned on read paths, no finding.
//
//shift:lockfree
func PoolRoot() *int {
	v := pool.Get().(*int)
	pool.Put(v)
	return v
}

//shift:lockfree
func ViaRoot() {
	helper()
}

func helper() {
	mu.Lock() // want `acquires \(\*sync\.Mutex\)\.Lock on the lock-free path rooted at ViaRoot \(via a\.helper\)`
	mu.Unlock()
}

//shift:lockfree
func CrossRoot() int {
	dep.Blocker() // want `call to dep\.Blocker on the lock-free path rooted at CrossRoot: it acquires \(\*sync\.Mutex\)\.Lock`
	return dep.Harmless()
}

//shift:lockfree
func WaivedRoot() {
	//shift:allow-lock(fixture: startup-only lock, never on the serve path)
	mu.Lock()
	mu.Unlock()
}

//shift:lockfree
func BadWaiverRoot() {
	/* want `shift:allow-lock waiver is missing its mandatory \(reason\)` */ //shift:allow-lock
	mu.Lock()
	mu.Unlock()
}

// NotARoot blocks freely: no annotation, no finding.
func NotARoot() {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}

// AsmRoot calls a function implemented in assembly: a body-less
// declaration has no operations to walk, so it is not a finding and
// needs no waiver.
//
//shift:lockfree
func AsmRoot(xs []uint64) {
	kernel(xs, len(xs))
}

func kernel(xs []uint64, n int)
