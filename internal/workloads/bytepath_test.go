package workloads

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// referenceValue is ValueFor as first written, one byte at a time: the
// word-at-a-time generator must reproduce it exactly, because committed
// benchmark outputs and stored records depend on these bytes.
func referenceValue(key uint64, version uint32, size int) []byte {
	out := make([]byte, size)
	var seed [12]byte
	binary.BigEndian.PutUint64(seed[:], key)
	binary.BigEndian.PutUint32(seed[8:], version)
	for i := range out {
		out[i] = seed[i%12] ^ byte(i*131>>3)
	}
	return out
}

// Every size from 0 to 9000 (past the pattern's 6144-byte period), each
// with a random key and version: ValueFor and AppendSet's value equal
// the reference loop, and the in-place check accepts the value and
// rejects it with any one byte flipped or one byte short.
func TestValueForMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for size := 0; size <= 9000; size++ {
		key, version := rng.Uint64(), rng.Uint32()
		want := referenceValue(key, version, size)
		got := ValueFor(key, version, size)
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d key %#x version %d: ValueFor differs from the reference", size, key, version)
		}
		frame := AppendSet([]byte("prefix"), key, version, size)
		var fr FrameReader
		fr.Feed(frame[len("prefix"):])
		op, payload, ok := fr.Next()
		if !ok || op != OpSet || binary.BigEndian.Uint64(payload) != key || !bytes.Equal(payload[8:], want) {
			t.Fatalf("size %d: AppendSet frame does not carry the reference value", size)
		}
		if !valueIs(want, key, version, size) {
			t.Fatalf("size %d: in-place check rejects the right value", size)
		}
		if size == 0 {
			continue
		}
		if valueIs(want[:size-1], key, version, size) {
			t.Fatalf("size %d: in-place check accepts a short value", size)
		}
		bad := append([]byte(nil), want...)
		bad[rng.Intn(size)] ^= 1 << uint(rng.Intn(8))
		if valueIs(bad, key, version, size) {
			t.Fatalf("size %d: in-place check accepts a corrupted value", size)
		}
	}
}

// streamPair wires a client and a server stack through a switch.
func streamPair() (clock *simtime.Clock, cl, srv *simnet.Stack) {
	clock = simtime.NewClock()
	sw := simnet.NewSwitch(clock, 100*simtime.Microsecond, 0)
	pc, ps := sw.Attach("client"), sw.Attach("server")
	cl = simnet.NewStack(clock, "10.1.0.1", pc.Send)
	srv = simnet.NewStack(clock, "10.0.0.10", ps.Send)
	pc.SetReceiver(cl.Receive)
	ps.SetReceiver(srv.Receive)
	sw.Learn(cl.IP, pc)
	sw.Learn(srv.IP, ps)
	return clock, cl, srv
}

// A restored socket is a new object, but it carries the same 4-tuple,
// so the server maps it to the same connection and finds the partial
// frame buffer and queued requests the checkpoint recorded for it.
func TestRestoredSocketKeepsConnID(t *testing.T) {
	clock, cl, srv := streamPair()
	var orig *simnet.Socket
	srv.Listen(6379, func(s *simnet.Socket) { orig = s })
	cl.Connect(srv.IP, 6379, nil)
	clock.Run()
	if orig == nil {
		t.Fatal("no connection")
	}
	orig.EnterRepair()
	sn := srv.SnapshotSocket(orig)
	backup := simnet.NewStack(clock, srv.IP, nil)
	backup.Connect("10.9.9.9", 1, nil) // the restored socket gets a different ID
	restored := backup.RestoreSocket(sn)
	if restored == orig || restored.ID == orig.ID {
		t.Fatal("restore reused the original socket or its ID")
	}
	if connIDOf(restored) != connIDOf(orig) {
		t.Fatalf("restored connID %+v, original %+v", connIDOf(restored), connIDOf(orig))
	}
	// A second connection from the same client differs in its port.
	var second *simnet.Socket
	srv.Listen(6379, func(s *simnet.Socket) { second = s })
	cl.Connect(srv.IP, 6379, nil)
	clock.Run()
	if second == nil || connIDOf(second) == connIDOf(orig) {
		t.Fatal("a second connection shares the first one's connID")
	}
}

// Next returns views of the reader's buffer, which later feeds
// overwrite; the server's Pending queue keeps its own copies, so a
// request queued behind a busy worker is intact when it is processed.
func TestPendingPayloadSurvivesFeeds(t *testing.T) {
	clock, cl, srv := streamPair()
	sv := &Server{state: &serverState{Index: map[uint64]int{}}, readers: map[connID]*FrameReader{}, conns: map[connID]*simnet.Socket{}}
	srv.Listen(7, sv.accept)
	var sock *simnet.Socket
	cl.Connect(srv.IP, 7, func(s *simnet.Socket) { sock = s })
	clock.Run()

	first := bytes.Repeat([]byte{'a'}, 300)
	sock.Send(AppendFrame(nil, OpEcho, first))
	clock.Run()
	for i := 0; i < 5; i++ {
		// Each frame refills the reader's buffer from its start, over
		// the bytes the first payload was parsed from.
		sock.Send(AppendFrame(nil, OpEcho, bytes.Repeat([]byte{'b' + byte(i)}, 300)))
		clock.Run()
	}
	if len(sv.state.Pending) != 6 {
		t.Fatalf("%d requests queued, want 6", len(sv.state.Pending))
	}
	if got := sv.state.Pending[0].Payload; !bytes.Equal(got, first) {
		t.Fatalf("queued payload changed to %q... after later feeds", got[:8])
	}
	for i, req := range sv.state.Pending[1:] {
		if !bytes.Equal(req.Payload, bytes.Repeat([]byte{'b' + byte(i)}, 300)) {
			t.Fatalf("request %d payload corrupted", i+1)
		}
	}
}

// A steady-state request/response round trip between two stacks stays
// within a fixed allocation budget: one copy per Send on each side, the
// switch's per-packet delivery closure, the engine's event chunks, and
// nothing per segment or per frame on the receive paths. A fresh receive
// buffer per delivery, a chunk per segment, a closure per timer arm or a
// slice per parsed frame each breaks the budget.
func TestRoundTripAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	clock, cl, srv := streamPair()
	const respSize = 16 << 10 // Node's page size: 12 segments
	page := PageFor(3, respSize)

	var sfr FrameReader
	var sout []byte
	srv.Listen(80, func(s *simnet.Socket) {
		s.OnData = func(s *simnet.Socket) {
			sfr.FeedFrom(s)
			for {
				_, payload, ok := sfr.Next()
				if !ok {
					return
				}
				sout = AppendFrame(sout[:0], OpWeb, PageFor(binary.BigEndian.Uint32(payload), respSize))
				s.Send(sout)
			}
		}
	})
	var cfr FrameReader
	var cout []byte
	replies, bad := 0, 0
	var sock *simnet.Socket
	cl.Connect(srv.IP, 80, func(s *simnet.Socket) {
		sock = s
		s.OnData = func(s *simnet.Socket) {
			cfr.FeedFrom(s)
			for {
				_, payload, ok := cfr.Next()
				if !ok {
					return
				}
				replies++
				if !bytes.Equal(payload, page) {
					bad++
				}
			}
		}
	})
	clock.Run()
	roundTrip := func() {
		var p [4]byte
		binary.BigEndian.PutUint32(p[:], 3)
		cout = AppendFrame(cout[:0], OpWeb, p[:])
		sock.Send(cout)
		clock.Run()
	}
	for i := 0; i < 20; i++ {
		roundTrip() // warm up: buffers reach their steady-state sizes
	}
	before := clock.Executed()
	allocs := testing.AllocsPerRun(200, roundTrip)
	events := int(clock.Executed()-before) / 201 // AllocsPerRun adds a warm-up call
	if replies != 221 || bad != 0 {
		t.Fatalf("%d replies, %d wrong", replies, bad)
	}
	// Each event is one packet delivery, whose switch closure is the
	// only per-packet allocation. The engine carves events, the canceled
	// retransmit timers included, from 16-event chunks: at most one
	// chunk per eight deliveries here.
	if budget := float64(events + events/8 + 2); allocs > budget {
		t.Fatalf("%.0f allocations per round trip, want at most %.0f (%d packets, their event chunks, one copy per Send)", allocs, budget, events)
	}
	t.Logf("%.0f allocations, %d packets per round trip", allocs, events)
}
