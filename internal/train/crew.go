package train

import (
	"errors"
	"fmt"
	"sync"
)

// crew is the lanes of a multi-lane engine — a pipeline's stages, a
// data-parallel engine's replicas — each on a persistent goroutine, and the
// table each lane runs once per round. A round costs each lane one command
// and one acknowledgement; all lane state is owned by the lane's goroutine
// while a round runs, and ownership transfers through those two channels.
type crew struct {
	lanes  []*lane
	rows   [][]row // rows[i] is the table lane i runs every round
	cmd    []chan struct{}
	acks   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// add appends a lane that runs rows every round.
func (c *crew) add(l *lane, rows []row) {
	l.timed = true
	l.size()
	c.lanes = append(c.lanes, l)
	c.rows = append(c.rows, rows)
}

// start launches one goroutine per lane, and one running side unless it is
// nil (the data-parallel reducer). A command channel has capacity 1, so
// round's send never waits for a lane that is still waking up; acks holds one
// acknowledgement per lane.
func (c *crew) start(side func()) {
	c.cmd = make([]chan struct{}, len(c.lanes))
	c.acks = make(chan struct{}, len(c.lanes))
	c.wg.Add(len(c.lanes))
	for i := range c.lanes {
		c.cmd[i] = make(chan struct{}, 1)
		go c.loop(i)
	}
	if side != nil {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			side()
		}()
	}
}

// loop is lane i's goroutine: one run of its table per command. It polls for
// the next command before it parks: between two back-to-back steps lies only
// the caller's update, shorter than a wake-up.
func (c *crew) loop(i int) {
	defer c.wg.Done()
	l := c.lanes[i]
	for {
		if _, ok := recvHot(c.cmd[i], &l.poll); !ok {
			return
		}
		l.run(c.rows[i])
		c.acks <- struct{}{}
	}
}

// round runs every lane's table once and returns when all of them are done.
func (c *crew) round() {
	for _, ch := range c.cmd {
		ch <- struct{}{}
	}
	for range c.cmd {
		<-c.acks
	}
}

// stop ends the lanes' goroutines, calls release (unless nil) to end side,
// and waits for all of them; later calls do nothing. It must not overlap a
// round.
func (c *crew) stop(release func()) {
	if c.closed {
		return
	}
	c.closed = true
	for _, ch := range c.cmd {
		close(ch)
	}
	if release != nil {
		release()
	}
	c.wg.Wait()
}

// laneNets returns the n networks of an engine's lanes: proto, then n−1 from
// build, each aligned with proto parameter for parameter (same names and
// sizes, as the same constructor makes with any seed) and reading proto's
// weights, so the optimizer's step on proto is every lane's. Microbatch
// networks (shareGrads) also fold into proto's gradients, which no two lanes
// touch at once: each layer lives on one pipeline stage. Replicas keep their
// own gradients for the reducer to sum into proto's. The aliases are set
// before any forward, so cached views (Conv2D's weight matrix) bind to them.
func laneNets(proto *Network, build func() *Network, n int, shareGrads bool) ([]*Network, error) {
	if n > 1 && build == nil {
		return nil, fmt.Errorf("train: %d lanes need a Build function", n)
	}
	pp := proto.Params()
	nets := []*Network{proto}
	for len(nets) < n {
		net := build()
		if net == nil {
			return nil, errors.New("train: Build returned nil lane")
		}
		np := net.Params()
		if len(np) != len(pp) {
			return nil, fmt.Errorf("train: built lane has %d params, prototype %d", len(np), len(pp))
		}
		for i, p := range np {
			if p.Name != pp[i].Name || len(p.Value.Data) != len(pp[i].Value.Data) {
				return nil, fmt.Errorf("train: built lane's param %d is %q of %d elements, prototype's %q of %d",
					i, p.Name, len(p.Value.Data), pp[i].Name, len(pp[i].Value.Data))
			}
			p.Value = pp[i].Value
			if shareGrads {
				p.Grad = pp[i].Grad
			}
		}
		nets = append(nets, net)
	}
	return nets, nil
}
