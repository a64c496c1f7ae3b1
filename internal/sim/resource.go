package sim

// Server models a resource that serves one request at a time (a GPU issue
// thread, a link direction, ...). Requests are served in priority order
// (lower value first), FIFO within a priority. Each request occupies the
// server for its service duration; when it finishes, done is invoked.
type Server struct {
	eng   *Engine
	busy  bool
	queue []request // binary heap ordered by (prio, seq)
	seq   uint64
}

type request struct {
	prio int
	seq  uint64
	dur  Time
	done func(start, end Time)
}

func reqLess(a, b request) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// NewServer returns a Server bound to the engine.
func NewServer(eng *Engine) *Server { return &Server{eng: eng} }

// Submit enqueues a request with the given priority and service time. done is
// called when service completes, with the service start and end times; it may
// be nil.
//
// The queue is a plain value heap (no container/heap interface boxing), so a
// Submit allocates only when the queue outgrows its high-water mark.
func (s *Server) Submit(prio int, dur Time, done func(start, end Time)) {
	if dur < 0 {
		panic("sim: negative service time")
	}
	s.queue = append(s.queue, request{prio: prio, seq: s.seq, dur: dur, done: done})
	s.seq++
	// Sift up.
	q := s.queue
	i := len(q) - 1
	r := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !reqLess(r, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = r
	if !s.busy {
		s.dispatch()
	}
}

// pop removes and returns the minimum request.
func (s *Server) pop() request {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n].done = nil // release the closure for GC
	s.queue = q[:n]
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && reqLess(q[r], q[child]) {
				child = r
			}
			if !reqLess(q[child], last) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = last
	}
	return top
}

func (s *Server) dispatch() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	s.busy = true
	r := s.pop()
	start := s.eng.Now()
	s.eng.After(r.dur, func() {
		if r.done != nil {
			r.done(start, s.eng.Now())
		}
		s.dispatch()
	})
}

// Gate is a counting barrier: Arm it with a count, and it fires fn once that
// many Done calls have been made. A Gate armed with zero fires immediately.
type Gate struct {
	remaining int
	fn        func()
	fired     bool
}

// NewGate returns a gate that fires fn after n completions.
func NewGate(n int, fn func()) *Gate {
	g := &Gate{remaining: n, fn: fn}
	if n <= 0 {
		g.fire()
	}
	return g
}

// Done records one completion.
func (g *Gate) Done() {
	if g.fired {
		return
	}
	g.remaining--
	if g.remaining <= 0 {
		g.fire()
	}
}

func (g *Gate) fire() {
	g.fired = true
	if g.fn != nil {
		g.fn()
	}
}
