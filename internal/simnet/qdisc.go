package simnet

// PlugQdisc models the sch_plug queueing discipline NiLiCon uses for
// output commit (§II-A) and — in the optimized implementation — for
// input blocking (§V-C).
//
// Egress: while replication is enabled, every packet the container emits
// during epoch k is held in the current buffer. At each checkpoint the
// core rotates the buffer, tagging it with the epoch number; when the
// backup acknowledges epoch k's state, Release(k) flushes all buffers
// with epoch ≤ k. A client can therefore never observe output that is
// not covered by a committed checkpoint.
//
// Ingress: during the stop phase (and during recovery at the backup),
// input must not reach the container. Two modes reproduce the paper's
// §V-C comparison: FirewallDrop (stock CRIU; packets are dropped, so TCP
// connection establishment can stall for seconds) and PlugBuffer
// (NiLiCon; packets are buffered and delivered on unblock).

// InputBlockMode selects how blocked ingress is handled.
type InputBlockMode int

// Input blocking modes.
const (
	// FirewallDrop drops packets arriving while input is blocked (stock
	// CRIU firewall rules).
	FirewallDrop InputBlockMode = iota
	// PlugBuffer buffers packets and releases them on unblock (NiLiCon).
	PlugBuffer
)

type epochBuffer struct {
	epoch uint64
	pkts  []Packet
}

// PlugQdisc sits between a container's TCP stack and its bridge port.
type PlugQdisc struct {
	// out is the egress path toward the switch.
	out func(Packet)
	// in is the ingress path toward the container's stack.
	in func(Packet)

	replicating bool
	curEpoch    uint64
	current     []Packet
	pending     []epochBuffer
	// spare is a released epoch buffer's storage, emptied, which the
	// next Rotate hands to the new current epoch.
	spare []Packet

	inputBlocked bool
	inputMode    InputBlockMode
	inputBuf     []Packet

	// OnDeliver, when set, observes every packet the qdisc hands to the
	// container's stack — direct ingress and unblock flushes alike, in
	// delivery order. The record/replay recorder uses this as the
	// authoritative capture point for network-input nondeterminism: what
	// the stack saw, in the order it saw it.
	OnDeliver func(Packet)

	// Stats.
	egressBuffered  int
	egressReleased  int
	ingressDropped  int
	ingressBuffered int
}

// NewPlugQdisc creates a qdisc delivering egress via out and ingress via
// in. Replication buffering starts disabled (pass-through).
func NewPlugQdisc(out, in func(Packet)) *PlugQdisc {
	return &PlugQdisc{out: out, in: in, inputMode: PlugBuffer}
}

// SetOutput replaces the egress path (used when reattaching at restore).
func (q *PlugQdisc) SetOutput(out func(Packet)) { q.out = out }

// SetInput replaces the ingress path.
func (q *PlugQdisc) SetInput(in func(Packet)) { q.in = in }

// SetInputMode selects drop vs buffer semantics for blocked ingress.
func (q *PlugQdisc) SetInputMode(m InputBlockMode) { q.inputMode = m }

// InputMode returns the current ingress blocking mode.
func (q *PlugQdisc) InputMode() InputBlockMode { return q.inputMode }

// SetReplicating turns epoch-buffered egress on or off. Turning it off
// flushes everything held.
func (q *PlugQdisc) SetReplicating(on bool) {
	q.replicating = on
	if !on {
		q.ReleaseAll()
	}
}

// Replicating reports whether egress is epoch-buffered.
func (q *PlugQdisc) Replicating() bool { return q.replicating }

// Egress is called by the container stack for each outgoing packet.
func (q *PlugQdisc) Egress(pkt Packet) {
	if !q.replicating {
		if q.out != nil {
			q.out(pkt)
		}
		return
	}
	q.current = append(q.current, pkt)
	q.egressBuffered++
}

// Rotate closes the current epoch's egress buffer, tagging it with the
// epoch number; the core calls this when it checkpoints epoch k.
func (q *PlugQdisc) Rotate(epoch uint64) {
	if len(q.current) > 0 {
		q.pending = append(q.pending, epochBuffer{epoch: epoch, pkts: q.current})
		q.current, q.spare = q.spare, nil
	}
	q.curEpoch = epoch + 1
}

// Release flushes all pending buffers with epoch <= acked, in order.
func (q *PlugQdisc) Release(acked uint64) {
	i := 0
	for ; i < len(q.pending); i++ {
		if q.pending[i].epoch > acked {
			break
		}
		pkts := q.pending[i].pkts
		for _, pkt := range pkts {
			q.egressReleased++
			if q.out != nil {
				q.out(pkt)
			}
		}
		clear(pkts)
		q.spare = pkts[:0]
		q.pending[i] = epochBuffer{}
	}
	q.pending = q.pending[i:]
}

// ReleaseAll flushes every buffered egress packet (used when replication
// stops cleanly).
func (q *PlugQdisc) ReleaseAll() {
	q.Rotate(q.curEpoch)
	q.Release(^uint64(0))
}

// DiscardPending drops all buffered egress without sending. On failover
// the primary's buffered output must never reach the client (it reflects
// uncommitted state).
func (q *PlugQdisc) DiscardPending() {
	q.current = nil
	q.pending = nil
}

// PendingEgress returns the number of packets currently held.
func (q *PlugQdisc) PendingEgress() int {
	n := len(q.current)
	for _, b := range q.pending {
		n += len(b.pkts)
	}
	return n
}

// BlockInput begins blocking ingress according to the input mode.
func (q *PlugQdisc) BlockInput() { q.inputBlocked = true }

// UnblockInput stops blocking; in PlugBuffer mode the held packets are
// delivered in arrival order.
func (q *PlugQdisc) UnblockInput() {
	q.inputBlocked = false
	buf := q.inputBuf
	q.inputBuf = nil
	for _, pkt := range buf {
		q.deliver(pkt)
	}
}

// InputBlocked reports whether ingress is currently blocked.
func (q *PlugQdisc) InputBlocked() bool { return q.inputBlocked }

// Ingress is the bridge-port receiver: it forwards to the container's
// stack unless input is blocked.
func (q *PlugQdisc) Ingress(pkt Packet) {
	if q.inputBlocked {
		switch q.inputMode {
		case FirewallDrop:
			q.ingressDropped++
		case PlugBuffer:
			q.inputBuf = append(q.inputBuf, pkt)
			q.ingressBuffered++
		}
		return
	}
	q.deliver(pkt)
}

// deliver hands one packet to the stack, notifying the observer first so
// a recorder logs the packet before any synchronous handler output.
func (q *PlugQdisc) deliver(pkt Packet) {
	if q.OnDeliver != nil {
		q.OnDeliver(pkt)
	}
	if q.in != nil {
		q.in(pkt)
	}
}

// Stats returns (egressBuffered, egressReleased, ingressDropped,
// ingressBuffered) counters.
func (q *PlugQdisc) Stats() (int, int, int, int) {
	return q.egressBuffered, q.egressReleased, q.ingressDropped, q.ingressBuffered
}
