package simnet

import (
	"bytes"
	"testing"
	"testing/quick"

	"nilicon/internal/simtime"
)

// pair wires two stacks through a switch and returns them.
type pair struct {
	clock  *simtime.Clock
	sw     *Switch
	a, b   *Stack
	pa, pb *Port
}

func newPair(t *testing.T) *pair {
	t.Helper()
	c := simtime.NewClock()
	sw := NewSwitch(c, 100*simtime.Microsecond, 28*simtime.Millisecond)
	pa := sw.Attach("a")
	pb := sw.Attach("b")
	a := NewStack(c, "10.0.0.1", pa.Send)
	b := NewStack(c, "10.0.0.2", pb.Send)
	pa.SetReceiver(a.Receive)
	pb.SetReceiver(b.Receive)
	sw.Learn(a.IP, pa)
	sw.Learn(b.IP, pb)
	return &pair{clock: c, sw: sw, a: a, b: b, pa: pa, pb: pb}
}

func TestHandshake(t *testing.T) {
	p := newPair(t)
	var server, client *Socket
	p.b.Listen(80, func(s *Socket) { server = s })
	p.a.Connect(p.b.IP, 80, func(s *Socket) { client = s })
	p.clock.Run()
	if client == nil || server == nil {
		t.Fatal("handshake did not complete")
	}
	if client.State != StateEstablished || server.State != StateEstablished {
		t.Fatalf("states: client=%v server=%v", client.State, server.State)
	}
}

func TestSynToClosedPortGetsRST(t *testing.T) {
	p := newPair(t)
	var rstSock *Socket
	s := p.a.Connect(p.b.IP, 81, nil)
	s.OnReset = func(x *Socket) { rstSock = x }
	p.clock.Run()
	if rstSock == nil {
		t.Fatal("no RST for SYN to closed port")
	}
	if p.b.RSTsSent() != 1 {
		t.Fatalf("server sent %d RSTs, want 1", p.b.RSTsSent())
	}
}

func TestDataTransfer(t *testing.T) {
	p := newPair(t)
	var got []byte
	p.b.Listen(80, func(s *Socket) {
		s.OnData = func(s *Socket) { got = s.Drain(got) }
	})
	p.a.Connect(p.b.IP, 80, func(s *Socket) {
		s.Send([]byte("hello "))
		s.Send([]byte("world"))
	})
	p.clock.Run()
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
}

func TestLargeTransferSegmentsAtMSS(t *testing.T) {
	p := newPair(t)
	payload := bytes.Repeat([]byte{0xAB}, 10_000)
	var got []byte
	p.b.Listen(80, func(s *Socket) {
		s.OnData = func(s *Socket) { got = s.Drain(got) }
	})
	p.a.Connect(p.b.IP, 80, func(s *Socket) { s.Send(payload) })
	p.clock.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("large transfer corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestBidirectionalEcho(t *testing.T) {
	p := newPair(t)
	var reply []byte
	p.b.Listen(7, func(s *Socket) {
		s.OnData = func(s *Socket) { s.Send(s.Drain(nil)) }
	})
	p.a.Connect(p.b.IP, 7, func(s *Socket) {
		s.OnData = func(s *Socket) { reply = s.Drain(reply) }
		s.Send([]byte("ping"))
	})
	p.clock.Run()
	if string(reply) != "ping" {
		t.Fatalf("echo reply = %q", reply)
	}
}

func TestAckPrunesWriteQueue(t *testing.T) {
	p := newPair(t)
	var cl *Socket
	p.b.Listen(80, func(s *Socket) {})
	p.a.Connect(p.b.IP, 80, func(s *Socket) {
		cl = s
		s.Send([]byte("data"))
	})
	p.clock.Run()
	if cl.UnackedBytes() != 0 {
		t.Fatalf("write queue = %d bytes after ACK, want 0", cl.UnackedBytes())
	}
}

func TestRetransmissionAfterLoss(t *testing.T) {
	p := newPair(t)
	var got []byte
	p.b.Listen(80, func(s *Socket) {
		s.OnData = func(s *Socket) { got = s.Drain(got) }
	})
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()

	// Cut the wire, send (lost), reconnect, and wait for the RTO.
	p.pb.SetEnabled(false)
	cl.Send([]byte("lost-then-found"))
	p.clock.RunFor(50 * simtime.Millisecond)
	if len(got) != 0 {
		t.Fatal("data arrived through a dead port")
	}
	p.pb.SetEnabled(true)
	p.clock.Run()
	if string(got) != "lost-then-found" {
		t.Fatalf("after retransmission got %q", got)
	}
	if cl.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

func TestDuplicateSegmentsDiscarded(t *testing.T) {
	p := newPair(t)
	var got []byte
	var srv *Socket
	p.b.Listen(80, func(s *Socket) {
		srv = s
		s.OnData = func(s *Socket) { got = s.Drain(got) }
	})
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	cl.Send([]byte("abc"))
	p.clock.Run()
	// Replay the same segment directly into the server stack.
	p.b.Receive(Packet{
		Kind: KindTCP, Src: p.a.IP, Dst: p.b.IP,
		SrcPort: cl.LocalPort, DstPort: 80,
		Flags: FlagACK, Seq: cl.sndUna - 3, Ack: srv.sndNxt, Payload: []byte("abc"),
	})
	p.clock.Run()
	if string(got) != "abc" {
		t.Fatalf("duplicate not discarded: got %q", got)
	}
}

func TestPartialOverlapConsumesOnlyNewBytes(t *testing.T) {
	p := newPair(t)
	var got []byte
	var srv *Socket
	p.b.Listen(80, func(s *Socket) {
		srv = s
		s.OnData = func(s *Socket) { got = s.Drain(got) }
	})
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	cl.Send([]byte("abc"))
	p.clock.Run()
	// Segment overlapping the last 3 bytes plus 3 new ones.
	p.b.Receive(Packet{
		Kind: KindTCP, Src: p.a.IP, Dst: p.b.IP,
		SrcPort: cl.LocalPort, DstPort: 80,
		Flags: FlagACK, Seq: cl.sndUna - 3, Ack: srv.sndNxt, Payload: []byte("abcdef"),
	})
	p.clock.Run()
	if string(got) != "abcdef" {
		t.Fatalf("overlap handling: got %q, want abcdef", got)
	}
}

func TestOutOfOrderSegmentDropped(t *testing.T) {
	p := newPair(t)
	var got []byte
	var srv *Socket
	p.b.Listen(80, func(s *Socket) {
		srv = s
		s.OnData = func(s *Socket) { got = s.Drain(got) }
	})
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	// Inject a segment with a gap.
	p.b.Receive(Packet{
		Kind: KindTCP, Src: p.a.IP, Dst: p.b.IP,
		SrcPort: cl.LocalPort, DstPort: 80,
		Flags: FlagACK, Seq: cl.sndNxt + 100, Ack: srv.sndNxt, Payload: []byte("gap"),
	})
	p.clock.Run()
	if len(got) != 0 {
		t.Fatalf("out-of-order segment delivered: %q", got)
	}
}

func TestClose(t *testing.T) {
	p := newPair(t)
	srvClosed, clClosed := false, false
	p.b.Listen(80, func(s *Socket) {
		s.OnClose = func(*Socket) { srvClosed = true }
	})
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) {
		cl = s
		s.OnClose = func(*Socket) { clClosed = true }
	})
	p.clock.Run()
	cl.Close()
	p.clock.Run()
	if !srvClosed {
		t.Fatal("server never saw FIN")
	}
	if !clClosed {
		t.Fatal("client close not acknowledged")
	}
}

func TestSynRetryWithBackoff(t *testing.T) {
	p := newPair(t)
	p.b.Listen(80, func(*Socket) {})
	connectedAt := simtime.Time(-1)

	// Block the server's ingress for 1.5 s: the first SYN (and its 1 s
	// retry... no — first SYN at t=0 dropped, retry at 1 s passes).
	p.pb.SetEnabled(false)
	p.clock.Schedule(500*simtime.Millisecond, func() { p.pb.SetEnabled(true) })
	p.a.Connect(p.b.IP, 80, func(s *Socket) { connectedAt = p.clock.Now() })
	p.clock.Run()

	if connectedAt < simtime.Time(simtime.Second) {
		t.Fatalf("connected at %v; dropped SYN should delay ≥1s (§V-C)", connectedAt)
	}
	if connectedAt > simtime.Time(1100*simtime.Millisecond) {
		t.Fatalf("connected at %v; retry should land shortly after 1s", connectedAt)
	}
}

func TestSynGivesUpAfterRetries(t *testing.T) {
	p := newPair(t)
	p.pb.SetEnabled(false) // server unreachable forever
	reset := false
	s := p.a.Connect(p.b.IP, 80, nil)
	s.OnReset = func(*Socket) { reset = true }
	p.clock.Run()
	if !reset {
		t.Fatal("connect never gave up")
	}
	if s.State != StateClosed {
		t.Fatalf("state = %v, want Closed", s.State)
	}
}

func TestRepairModeSuppressesPackets(t *testing.T) {
	p := newPair(t)
	p.b.Listen(80, func(*Socket) {})
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	cl.EnterRepair()
	cl.Send([]byte("should not appear")) // Send in repair mode: no emission
	p.clock.Run()
	if !cl.InRepair() {
		t.Fatal("not in repair")
	}
	if cl.UnackedBytes() != 0 {
		// Send() on a repaired socket is a protocol error by the app; we
		// specify it as silently ignored because State checks gate it.
		t.Log("note: send in repair queued bytes")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := newPair(t)
	var srv *Socket
	p.b.Listen(80, func(s *Socket) { srv = s })
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()

	// Put unread data in the server's read queue and unacked data in its
	// write queue (client port disabled so ACKs never come back).
	cl.Send([]byte("request"))
	p.clock.Run()
	p.pa.SetEnabled(false)
	srv.Send([]byte("response"))
	p.clock.RunFor(10 * simtime.Millisecond)

	srv.EnterRepair()
	sn := p.b.SnapshotSocket(srv)
	if string(sn.ReadQueue) != "request" {
		t.Fatalf("read queue = %q", sn.ReadQueue)
	}
	if len(sn.WriteQueue) != 1 || string(sn.WriteQueue[0].Data) != "response" {
		t.Fatalf("write queue = %+v", sn.WriteQueue)
	}
	if sn.Size() <= 64 {
		t.Fatal("snapshot size should include queues")
	}

	// Restore into a fresh stack with the same IP.
	c2 := p.clock
	st2 := NewStack(c2, p.b.IP, nil)
	r := st2.RestoreSocket(sn)
	if r.State != StateEstablished || r.rcvNxt != sn.RcvNxt || r.sndNxt != sn.SndNxt {
		t.Fatalf("restored socket = %v", r)
	}
	if string(r.Drain(nil)) != "request" {
		t.Fatal("read queue not restored")
	}
	if r.UnackedBytes() != 8 {
		t.Fatalf("write queue bytes = %d, want 8", r.UnackedBytes())
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	p := newPair(t)
	var srv *Socket
	p.b.Listen(80, func(s *Socket) { srv = s })
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	cl.Send([]byte("xyz"))
	p.clock.Run()
	sn := p.b.SnapshotSocket(srv)
	sn.ReadQueue[0] = '!'
	if string(srv.Peek()) != "xyz" {
		t.Fatal("snapshot aliases live read queue")
	}
}

func TestRestoredSocketRetransmitsAfterRepairRTO(t *testing.T) {
	// Failover scenario: server state moves to a backup stack; the
	// backup must retransmit the unacked response and the client's
	// connection must survive — no RSTs anywhere (§V-E, §VII-A).
	c := simtime.NewClock()
	sw := NewSwitch(c, 100*simtime.Microsecond, 28*simtime.Millisecond)
	pc := sw.Attach("client")
	pp := sw.Attach("primary")
	pbk := sw.Attach("backup")
	client := NewStack(c, "10.0.0.1", pc.Send)
	primary := NewStack(c, "10.0.0.9", pp.Send)
	backup := NewStack(c, "10.0.0.9", pbk.Send) // same service IP
	pc.SetReceiver(client.Receive)
	pp.SetReceiver(primary.Receive)
	pbk.SetReceiver(backup.Receive)
	sw.Learn(client.IP, pc)
	sw.Learn("10.0.0.9", pp)

	var srv, cl *Socket
	var reply []byte
	primary.Listen(80, func(s *Socket) { srv = s })
	client.Connect("10.0.0.9", 80, func(s *Socket) {
		cl = s
		s.OnData = func(s *Socket) { reply = s.Drain(reply) }
	})
	c.Run()

	// Server responds, but the response never leaves the primary host
	// (checkpointed then host dies): emulate by disconnecting the
	// primary port BEFORE sending, so the write queue holds the data.
	pp.SetEnabled(false)
	srv.Send([]byte("RESULT"))
	srv.EnterRepair()
	sn := primary.SnapshotSocket(srv)

	// Failover: restore at backup, gratuitous ARP, leave repair with
	// the repair-RTO patch.
	failoverStart := c.Now()
	r := backup.RestoreSocket(sn)
	sw.GratuitousARP("10.0.0.9", pbk, func() {
		r.LeaveRepair(true)
	})
	c.Run()

	if string(reply) != "RESULT" {
		t.Fatalf("client reply = %q, want RESULT via backup retransmission", reply)
	}
	if cl.Reset || client.RSTsSent() > 0 || backup.RSTsSent() > 0 {
		t.Fatal("connection broke during failover")
	}
	// With the patch the retransmit fires at RTOMin (200 ms) after
	// leaving repair, not the ≥1 s fresh-socket default.
	elapsed := c.Now().Sub(failoverStart)
	if elapsed > 400*simtime.Millisecond {
		t.Fatalf("failover took %v; repair-RTO patch should bound it near 228ms", elapsed)
	}
}

func TestRestoredSocketWithoutPatchIsSlow(t *testing.T) {
	c := simtime.NewClock()
	sw := NewSwitch(c, 100*simtime.Microsecond, 0)
	pc := sw.Attach("client")
	pbk := sw.Attach("backup")
	client := NewStack(c, "10.0.0.1", pc.Send)
	backup := NewStack(c, "10.0.0.9", pbk.Send)
	pc.SetReceiver(client.Receive)
	pbk.SetReceiver(backup.Receive)
	sw.Learn(client.IP, pc)

	// Hand-build matching endpoint states (as if checkpointed).
	clSn := SocketSnapshot{State: StateEstablished, LocalPort: 50000, Remote: "10.0.0.9", RemotePort: 80, SndUna: 100, SndNxt: 100, RcvNxt: 500}
	srvSn := SocketSnapshot{
		State: StateEstablished, LocalPort: 80, Remote: "10.0.0.1", RemotePort: 50000,
		SndUna: 500, SndNxt: 506, RcvNxt: 100,
		WriteQueue: []SegmentSnapshot{{Seq: 500, Data: []byte("RESULT")}},
	}
	var got []byte
	clSock := client.RestoreSocket(clSn)
	clSock.OnData = func(s *Socket) { got = s.Drain(got) }
	clSock.LeaveRepair(true)
	r := backup.RestoreSocket(srvSn)
	sw.Learn("10.0.0.9", pbk)
	start := c.Now()
	r.LeaveRepair(false) // stock kernel: fresh-socket RTO ≥ 1s
	c.RunUntil(start.Add(900 * simtime.Millisecond))
	if len(got) != 0 {
		t.Fatal("data arrived before the 1s fresh-socket RTO")
	}
	c.Run()
	if string(got) != "RESULT" {
		t.Fatalf("got %q", got)
	}
}

// Property: a byte stream pushed through the stack in arbitrary chunk
// sizes arrives intact and in order.
func TestPropertyStreamIntegrity(t *testing.T) {
	f := func(chunks [][]byte) bool {
		c := simtime.NewClock()
		sw := NewSwitch(c, 10*simtime.Microsecond, 0)
		pa := sw.Attach("a")
		pb := sw.Attach("b")
		a := NewStack(c, "a", pa.Send)
		b := NewStack(c, "b", pb.Send)
		pa.SetReceiver(a.Receive)
		pb.SetReceiver(b.Receive)
		sw.Learn("a", pa)
		sw.Learn("b", pb)

		var want, got []byte
		b.Listen(1, func(s *Socket) {
			s.OnData = func(s *Socket) { got = s.Drain(got) }
		})
		a.Connect("b", 1, func(s *Socket) {
			for _, ch := range chunks {
				if len(ch) > 4000 {
					ch = ch[:4000]
				}
				want = append(want, ch...)
				s.Send(ch)
			}
		})
		c.Run()
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot → restore preserves every repair-visible field.
func TestPropertySnapshotRestoreIdentity(t *testing.T) {
	f := func(una, delta uint16, rq, wq []byte) bool {
		c := simtime.NewClock()
		st := NewStack(c, "x", nil)
		sn := SocketSnapshot{
			State: StateEstablished, LocalPort: 80, Remote: "y", RemotePort: 9,
			SndUna: uint32(una), SndNxt: uint32(una) + uint32(len(wq)),
			RcvNxt:    uint32(delta),
			ReadQueue: rq,
		}
		if len(wq) > 0 {
			sn.WriteQueue = []SegmentSnapshot{{Seq: uint32(una), Data: wq}}
		}
		s := st.RestoreSocket(sn)
		sn2 := st.SnapshotSocket(s)
		if sn2.SndUna != sn.SndUna || sn2.SndNxt != sn.SndNxt || sn2.RcvNxt != sn.RcvNxt {
			return false
		}
		if !bytes.Equal(sn2.ReadQueue, sn.ReadQueue) {
			return false
		}
		if len(sn.WriteQueue) != len(sn2.WriteQueue) {
			return false
		}
		for i := range sn.WriteQueue {
			if !bytes.Equal(sn.WriteQueue[i].Data, sn2.WriteQueue[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotChargesKernelMeter(t *testing.T) {
	p := newPair(t)
	k := newNetTestKernel()
	p.b.Kernel = k
	var srv *Socket
	p.b.Listen(80, func(s *Socket) { srv = s })
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	cl.Send(bytes.Repeat([]byte{1}, 2048))
	p.clock.Run()
	m := k.StartMeter()
	p.b.SnapshotSocket(srv)
	cost := m.Stop()
	want := k.Costs.SockRepairPerSocket + 2*k.Costs.SockRepairPerKB
	if cost != want {
		t.Fatalf("snapshot cost = %v, want %v", cost, want)
	}
}

// Send copies the caller's bytes: overwriting the buffer right after
// Send changes neither the first transmission nor the retransmission of
// a segment whose first copy was lost.
func TestSendCopiesCallerBuffer(t *testing.T) {
	p := newPair(t)
	var got []byte
	p.b.Listen(80, func(s *Socket) {
		s.OnData = func(s *Socket) { got = s.Drain(got) }
	})
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()

	want := bytes.Repeat([]byte("0123456789"), 500) // 4 segments
	buf := append([]byte(nil), want...)
	cl.Send(buf)
	for i := range buf {
		buf[i] = '!'
	}
	p.clock.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, not the ones sent", len(got))
	}

	// Lose the first transmission; the retransmission must carry the
	// bytes as they were at Send.
	got = nil
	p.pb.SetEnabled(false)
	copy(buf, want)
	cl.Send(buf)
	for i := range buf {
		buf[i] = '?'
	}
	p.clock.RunFor(10 * simtime.Millisecond)
	p.pb.SetEnabled(true)
	p.clock.Run()
	if cl.Retransmits() == 0 {
		t.Fatal("nothing was retransmitted")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("retransmission delivered %d bytes, not the ones sent", len(got))
	}
}

// The socket reuses its receive buffer across deliveries, so a snapshot
// must own its copy of the read queue: later deliveries into the reused
// storage leave the snapshot as it was, and the snapshot shares the
// write queue's immutable segments instead.
func TestSnapshotReadQueueSurvivesBufferReuse(t *testing.T) {
	p := newPair(t)
	var srv *Socket
	p.b.Listen(80, func(s *Socket) { srv = s })
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	cl.Send([]byte("first-request"))
	p.clock.Run()
	p.pa.SetEnabled(false) // keep srv's reply unacknowledged
	srv.Send([]byte("reply"))
	sn := p.b.SnapshotSocket(srv)

	srv.Drain(nil)
	p.pa.SetEnabled(true)
	cl.Send([]byte("SECOND-REQUEST"))
	p.clock.RunFor(simtime.Millisecond)
	if string(srv.Peek()) != "SECOND-REQUEST" {
		t.Fatalf("read queue = %q", srv.Peek())
	}
	if string(sn.ReadQueue) != "first-request" {
		t.Fatalf("snapshot read queue changed to %q", sn.ReadQueue)
	}
	if len(sn.WriteQueue) != 1 || string(sn.WriteQueue[0].Data) != "reply" {
		t.Fatalf("snapshot write queue = %+v", sn.WriteQueue)
	}
	if &sn.WriteQueue[0].Data[0] != &srv.unacked()[0].data[0] {
		t.Fatal("snapshot copied an immutable write-queue segment")
	}
}

// One Send makes one allocation however many segments it emits: the
// segments are capacity-clipped views of a single copy, and arming the
// retransmission timer allocates no closure.
func TestSendAllocatesOneCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p := newPair(t)
	p.b.Listen(80, func(s *Socket) {})
	var cl *Socket
	p.a.Connect(p.b.IP, 80, func(s *Socket) { cl = s })
	p.clock.Run()
	p.pa.SetEnabled(false) // the switch drops the frames: no delivery events
	msg := make([]byte, 4*p.a.MSS)
	allocs := testing.AllocsPerRun(100, func() { cl.Send(msg) })
	if allocs > 1 {
		t.Fatalf("%.0f allocations per 4-segment Send, want 1", allocs)
	}
	q := cl.unacked()
	if last := q[len(q)-1].data; cap(last) != len(last) {
		t.Fatalf("segment capacity %d exceeds its length %d", cap(last), len(last))
	}
}
