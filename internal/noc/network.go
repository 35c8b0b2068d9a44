package noc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Link is one directed channel of the interconnect. It serializes
// admissions at Bandwidth per cycle with the same virtual-slot
// arithmetic the caches use for tag ports, bounds in-flight occupancy
// at Queue transfers (an admission past that waits for the oldest
// transfer to depart), and delivers each transfer Latency cycles after
// its admission through one pooled event.Queue — no per-request
// closures, no allocation on the steady-state path.
type Link struct {
	src, dst int
	cfg      LinkConfig
	sim      *event.Sim
	q        *event.Queue[*flit]

	// nextSlot is the next admission slot in bandwidth units
	// (cycle × Bandwidth), exactly the cache port-slot idiom.
	nextSlot uint64
	// departs ring-buffers the departure cycles of the last Queue
	// admissions; the slot about to be overwritten is the oldest
	// in-flight transfer, whose departure gates a full link.
	departs []event.Cycle
	di      int

	// Counters for stats.LinkStats.
	forwarded   uint64
	stallCycles uint64
	queuePeak   int
}

// send admits f and schedules its delivery. Called on the simulation
// goroutine only.
func (l *Link) send(f *flit) {
	now := uint64(l.sim.Now())
	bw := uint64(l.cfg.Bandwidth)
	if l.nextSlot < now*bw {
		l.nextSlot = now * bw
	}
	admit := event.Cycle(l.nextSlot / bw)
	l.nextSlot++
	// Bounded queue: the link holds at most len(departs) transfers in
	// flight, so admission waits for the oldest one to depart.
	if d := l.departs[l.di]; d > admit {
		admit = d
	}
	depart := admit + l.cfg.Latency
	l.departs[l.di] = depart
	l.di++
	if l.di == len(l.departs) {
		l.di = 0
	}
	if a := uint64(admit); a > now {
		l.stallCycles += a - now
	}
	l.forwarded++
	l.q.PushAt(depart, f)
	if n := l.q.Len(); n > l.queuePeak {
		l.queuePeak = n
	}
}

// deliver is the link's drain callback: advance the flit one hop, or
// hand the request to the path's sink and recycle the envelope.
func (l *Link) deliver(f *flit) {
	p := f.path
	f.hop++
	if f.hop < len(p.links) {
		p.links[f.hop].send(f)
		return
	}
	req := f.req
	f.req = nil
	p.flits = append(p.flits, f)
	p.sink.Submit(req)
}

// reset returns the link to its just-built state: in-flight transfers
// dropped, slots and counters zeroed. Call together with the owning
// Sim's Reset.
func (l *Link) reset() {
	l.q.Reset()
	l.nextSlot = 0
	for i := range l.departs {
		l.departs[i] = 0
	}
	l.di = 0
	l.forwarded = 0
	l.stallCycles = 0
	l.queuePeak = 0
}

// flit is the pooled multi-hop envelope: which path the request is on
// and how far along it is. Shared links route flits from many paths.
type flit struct {
	path *Path
	req  *mem.Request
	hop  int
}

// Path is a routed source→destination connection: an ordered chain of
// links ending at a sink port. It implements cache.Port, so hierarchy
// layers submit to it exactly as they would to the component it fronts.
type Path struct {
	sim   *event.Sim
	links []*Link
	sink  cache.Port
	// lat is the uncontended one-way latency (sum of link latencies);
	// the response direction pays it again, uncontended (see Submit).
	lat event.Cycle

	flits []*flit
	rets  []*ret
}

// ret is the pooled response-delay wrapper: it replaces a request's
// Done so the completion pays the path's return latency. fire restores
// the request's original Done before deferring it — upper levels attach
// Done closures once and recycle requests with the field intact, so the
// wrapper must never remain visible after the response completes.
type ret struct {
	req  *mem.Request
	orig func()
	fire func()
}

// Submit implements cache.Port: the request traverses the path's links
// (paying per-hop latency, bandwidth serialization, and bounded-queue
// contention) and is then submitted to the sink. The response direction
// is modelled as pure latency: the request's Done is deferred by the
// path's uncontended one-way latency. Requests whose Done is nil (none
// in the current hierarchy) would skip that deferral.
func (p *Path) Submit(req *mem.Request) {
	if req.Done != nil && p.lat > 0 {
		var r *ret
		if n := len(p.rets); n > 0 {
			r = p.rets[n-1]
			p.rets = p.rets[:n-1]
		} else {
			r = &ret{}
			r.fire = func() {
				orig := r.orig
				r.req.Done = orig
				r.req = nil
				r.orig = nil
				p.rets = append(p.rets, r)
				p.sim.Schedule(p.lat, orig)
			}
		}
		r.req = req
		r.orig = req.Done
		req.Done = r.fire
	}
	var f *flit
	if n := len(p.flits); n > 0 {
		f = p.flits[n-1]
		p.flits = p.flits[:n-1]
	} else {
		f = &flit{path: p}
	}
	f.req = req
	f.hop = 0
	p.links[0].send(f)
}

// Latency returns the uncontended one-way latency of the path.
func (p *Path) Latency() event.Cycle { return p.lat }

// Hops returns the number of links the path crosses.
func (p *Path) Hops() int { return len(p.links) }

// Network is a built interconnect: the links of one topology graph plus
// precomputed shortest-hop routes between every node pair.
type Network struct {
	sim   *event.Sim
	nodes int
	links []*Link
	// next[src*nodes+dst] is the index of the link to take from src
	// toward dst (-1 on the diagonal).
	next  []int32
	paths []*Path
}

// NewNetwork builds the links of a topology graph and its routing
// tables. The graph must be connected in both directions (every node
// must reach every other); a graph that is not is rejected with
// ErrDisconnected, malformed edges with ErrEdge, and an invalid link
// model with the LinkConfig errors — all named, so the fuzz harness and
// the config surface can distinguish rejection from breakage.
func NewNetwork(nodes int, edges []Edge, link LinkConfig, sim *event.Sim) (*Network, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("%w (graph has %d nodes)", ErrEdge, nodes)
	}
	if err := link.validate(); err != nil {
		return nil, err
	}
	n := &Network{sim: sim, nodes: nodes}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= nodes || e.Dst < 0 || e.Dst >= nodes || e.Src == e.Dst {
			return nil, fmt.Errorf("%w (%d→%d in a %d-node graph)", ErrEdge, e.Src, e.Dst, nodes)
		}
		l := &Link{src: e.Src, dst: e.Dst, cfg: link, sim: sim,
			departs: make([]event.Cycle, link.Queue)}
		l.q = event.NewQueue(sim, l.deliver)
		n.links = append(n.links, l)
	}
	if err := n.route(); err != nil {
		return nil, err
	}
	return n, nil
}

// route fills the next-hop table with deterministic shortest-hop routes
// (BFS per destination over reversed edges; ties break toward the
// lowest link index, so routing — and therefore timing — is a pure
// function of the edge order Graph emits).
func (n *Network) route() error {
	n.next = make([]int32, n.nodes*n.nodes)
	for i := range n.next {
		n.next[i] = -1
	}
	// in[v] lists links arriving at v, in link-index order.
	in := make([][]int32, n.nodes)
	for i, l := range n.links {
		in[l.dst] = append(in[l.dst], int32(i))
	}
	queue := make([]int, 0, n.nodes)
	for dst := 0; dst < n.nodes; dst++ {
		seen := 1
		queue = queue[:0]
		queue = append(queue, dst)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, li := range in[v] {
				u := n.links[li].src
				if u == dst || n.next[u*n.nodes+dst] != -1 {
					continue
				}
				n.next[u*n.nodes+dst] = li
				seen++
				queue = append(queue, u)
			}
		}
		if seen != n.nodes {
			return fmt.Errorf("%w (%d of %d nodes reach node %d)", ErrDisconnected, seen, n.nodes, dst)
		}
	}
	return nil
}

// Connect returns a cache.Port that carries requests from node src to
// sink at node dst across the network. A same-node connection is
// zero-cost: the sink itself is returned, so degenerate topologies add
// no objects and no latency to the hand-off they replace.
func (n *Network) Connect(src, dst int, sink cache.Port) cache.Port {
	if src < 0 || src >= n.nodes || dst < 0 || dst >= n.nodes {
		panic(fmt.Sprintf("noc: Connect(%d, %d) outside %d-node graph", src, dst, n.nodes))
	}
	if src == dst {
		return sink
	}
	p := &Path{sim: n.sim, sink: sink}
	for at := src; at != dst; {
		l := n.links[n.next[at*n.nodes+dst]]
		p.links = append(p.links, l)
		p.lat += l.cfg.Latency
		at = l.dst
	}
	n.paths = append(n.paths, p)
	return p
}

// Reset returns every link and path to its just-built state (in-flight
// transfers dropped, counters zeroed, pools kept). Call together with
// the owning Sim's Reset, like every other component Reset.
func (n *Network) Reset() {
	for _, l := range n.links {
		l.reset()
	}
	for _, p := range n.paths {
		// Pooled envelopes and return wrappers stay pooled; entries
		// still marked in-flight at reset time are abandoned to the
		// garbage collector, never double-recycled (their owning queue
		// entries were just dropped).
		for _, r := range p.rets {
			r.req = nil
			r.orig = nil
		}
	}
}

// Links returns the number of links in the network.
func (n *Network) Links() int { return len(n.links) }

// LinkStats appends one stats.LinkStats per link, in the deterministic
// graph edge order, and returns the extended slice.
func (n *Network) LinkStats(dst []stats.LinkStats) []stats.LinkStats {
	for _, l := range n.links {
		dst = append(dst, stats.LinkStats{
			Src:         l.src,
			Dst:         l.dst,
			Forwarded:   l.forwarded,
			StallCycles: l.stallCycles,
			QueuePeak:   uint64(l.queuePeak),
		})
	}
	return dst
}
