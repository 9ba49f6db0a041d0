package workloads

import (
	"bytes"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// Frames split at arbitrary points across Feed calls, with Next draining
// between feeds, reassemble exactly; Buffered always counts the bytes fed
// but not yet consumed, across the compaction Feed performs.
func TestFrameReaderCompactsAcrossFeeds(t *testing.T) {
	const frames = 50
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = append(stream, AppendFrame(nil, OpEcho, bytes.Repeat([]byte{byte(i)}, i*7))...)
	}
	var fr FrameReader
	got, consumed := 0, 0
	for pos := 0; pos < len(stream); {
		n := min(13+pos%29, len(stream)-pos)
		fr.Feed(stream[pos : pos+n])
		pos += n
		for {
			op, p, ok := fr.Next()
			if !ok {
				break
			}
			if op != OpEcho || !bytes.Equal(p, bytes.Repeat([]byte{byte(got)}, got*7)) {
				t.Fatalf("frame %d: op %q, %d payload bytes", got, op, len(p))
			}
			consumed += 5 + len(p)
			got++
		}
		if fr.Buffered() != pos-consumed {
			t.Fatalf("after %d bytes fed: Buffered() = %d, want %d", pos, fr.Buffered(), pos-consumed)
		}
	}
	if got != frames || fr.Buffered() != 0 {
		t.Fatalf("decoded %d of %d frames, %d bytes left", got, frames, fr.Buffered())
	}
}

// A connection in steady state reuses its reader's buffer and Next
// returns views of it, so parsing a frame allocates nothing. Reslicing
// the consumed front away instead reallocated the buffer as its
// capacity drained, and copying each payload cost one allocation per
// frame.
func TestFrameReaderSteadyStateAllocs(t *testing.T) {
	msg := AppendFrame(nil, OpSet, make([]byte, recordSize))
	half := len(msg) / 2
	var fr FrameReader
	allocs := testing.AllocsPerRun(1000, func() {
		fr.Feed(msg[:half])
		if _, _, ok := fr.Next(); ok {
			t.Fatal("half a frame decoded")
		}
		fr.Feed(msg[half:])
		if _, _, ok := fr.Next(); !ok {
			t.Fatal("whole frame not decoded")
		}
	})
	if allocs > 0 {
		t.Fatalf("%.0f allocations per frame, want 0", allocs)
	}
}

// A checkpoint taken while a connection holds half a request keeps
// exactly the unconsumed bytes, and the server a failover reattaches
// from the committed checkpoint finishes parsing that request when the
// rest arrives.
func TestServerSnapshotReattachPartialFrame(t *testing.T) {
	sv := Redis()
	env := newWLEnv(t, sv)
	var fresh *Server
	cfg := core.DefaultConfig()
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		fresh = Redis()
		if err := fresh.Reattach(rc, state); err != nil {
			t.Errorf("reattach: %v", err)
		}
	}
	repl := core.NewReplicator(env.cl, env.ctr, cfg)
	repl.Start()

	var resp FrameReader
	var sock *simnet.Socket
	env.cl.NewClient("10.1.0.1").Connect("10.0.0.10", sv.Profile().Port, func(s *simnet.Socket) {
		sock = s
		s.OnData = func(s *simnet.Socket) { resp.FeedFrom(s) }
	})
	// The SYN-ACK is output too: it waits for the initial sync to commit.
	env.clock.RunFor(simtime.Second)
	if sock == nil {
		t.Fatal("client did not connect")
	}
	const key = 7
	set := AppendFrame(nil, OpSet, append(KeyBytes(key), ValueFor(key, 1, recordSize)...))
	get := AppendFrame(nil, OpGet, KeyBytes(key))
	sock.Send(append(set, get[:3]...))
	env.clock.RunFor(300 * simtime.Millisecond)

	snap := sv.SnapshotState().(*serverState)
	if len(snap.ReaderBufs) != 1 {
		t.Fatalf("snapshot holds %d partial-frame buffers, want 1", len(snap.ReaderBufs))
	}
	for _, buf := range snap.ReaderBufs {
		if !bytes.Equal(buf, get[:3]) {
			t.Fatalf("snapshot kept %x, want the unconsumed %x", buf, get[:3])
		}
	}

	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(2 * simtime.Second)
	if fresh == nil {
		t.Fatal("no failover")
	}
	sock.Send(get[3:])
	env.clock.RunFor(2 * simtime.Second)
	for i, want := range [][]byte{[]byte("OK"), ValueFor(key, 1, recordSize)} {
		_, p, ok := resp.Next()
		if !ok || !bytes.Equal(p, want) {
			t.Fatalf("response %d: ok=%v, %d bytes, want %d", i, ok, len(p), len(want))
		}
	}
	if fresh.Processed() != 1 {
		t.Fatalf("reattached server processed %d requests, want the completed GET", fresh.Processed())
	}
}
