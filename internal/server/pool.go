package server

import (
	"context"
	"errors"
	"sync"
)

// errBusy reports a solve queue at capacity; handlers map it to 429.
var errBusy = errors.New("server: solve queue full")

// errClosed reports a pool that has been shut down.
var errClosed = errors.New("server: pool closed")

// pool is a bounded worker pool for solver execution. Solves are CPU-bound
// and super-linear in the group count, so running one per request goroutine
// would let a traffic burst grind every request to a halt; a fixed worker
// count plus a bounded queue gives the server a predictable concurrency
// envelope and lets it shed load explicitly instead of collapsing.
//
// The server runs one pool of Workers×Shards workers with QueueDepth×Shards
// queue slots: an analyze submits one partial-solve job per shard and
// gathers the results. The jobs of one request wait on each other only
// while one of them, already running, builds the request's WHERE scope,
// so the fan-out cannot deadlock.
type pool[T any] struct {
	queue   chan *poolJob[T]
	workers int
	wg      sync.WaitGroup
	once    sync.Once

	// mu makes submit/close safe to race: close takes the write lock to
	// flip closed before closing the queue, so no sender can hit a closed
	// channel (senders hold the read lock and only ever perform the
	// non-blocking enqueue under it).
	//
	//tagdm:mutex nonblocking
	mu     sync.RWMutex
	closed bool
}

type poolJob[T any] struct {
	ctx  context.Context
	fn   func(context.Context) (T, error)
	done chan poolResult[T]
}

type poolResult[T any] struct {
	val T
	err error
}

// newPool starts workers goroutines consuming a queue of at most depth
// pending jobs.
func newPool[T any](workers, depth int) *pool[T] {
	p := &pool[T]{queue: make(chan *poolJob[T], depth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool[T]) worker() {
	defer p.wg.Done()
	for job := range p.queue {
		if job.ctx.Err() != nil {
			// The request was cancelled while the job sat in the queue
			// (timeout, client gone, or a sibling shard's failure fanned
			// out); don't burn a worker on dead work.
			job.done <- poolResult[T]{err: job.ctx.Err()}
			continue
		}
		val, err := job.fn(job.ctx)
		job.done <- poolResult[T]{val: val, err: err}
	}
}

// submit enqueues fn without waiting for its result; the worker delivers
// exactly one poolResult to done. A full queue fails fast with errBusy and
// delivers nothing. done must have capacity for every job sharing it (the
// scatter uses one channel with capacity = shard count), so worker sends
// never block and an abandoned gather cannot strand a worker.
func (p *pool[T]) submit(ctx context.Context, done chan poolResult[T], fn func(context.Context) (T, error)) error {
	job := &poolJob[T]{ctx: ctx, fn: fn, done: done}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return errClosed
	}
	select {
	case p.queue <- job:
		p.mu.RUnlock()
		return nil
	default:
		p.mu.RUnlock()
		return errBusy
	}
}

// depth is the number of queued (not yet running) jobs.
func (p *pool[T]) depth() int { return len(p.queue) }

// close stops the workers after draining queued jobs. Safe to call twice
// and safe to race with submit (late submissions get errClosed).
func (p *pool[T]) close() {
	p.once.Do(func() {
		p.mu.Lock()
		p.closed = true
		close(p.queue)
		p.mu.Unlock()
	})
	p.wg.Wait()
}
