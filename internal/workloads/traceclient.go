package workloads

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

// TraceClientSet replaces the uniform closed-loop kv client set with the
// open-loop trace replayer: arrivals fire at their trace instants on the
// workload frame protocol regardless of completions, latency is judged
// by the windowed SLO judge, and replies match requests FIFO per
// connection (TCP ordering). It is the trace-driven alternative to
// NewClientSet — same server, same wire format, client-observed timing.
type TraceClientSet struct {
	cl   *core.Cluster
	prof Profile
	// Judge accumulates the windowed SLO evidence; Rep is the open-loop
	// replayer driving the connections.
	Judge *traffic.Judge
	Rep   *traffic.Replayer

	conns     []*traceConn
	Completed int64
	Errors    []string
}

// traceConn is one replayed client's connection: it renders traffic
// requests into kv frames and feeds FIFO reply completions back.
type traceConn struct {
	set     *TraceClientSet
	idx     int
	sock    *simnet.Socket
	fr      FrameReader
	out     []byte   // request scratch; Send copies it
	pending [][]byte // frames issued before the connect completed
}

// Send implements traffic.Conn.
func (tc *traceConn) Send(req traffic.Request) {
	size := req.Size
	if size <= 0 {
		size = recordSize
	}
	switch req.Op {
	case traffic.OpSet:
		// The value is derived from (key, request id) so a replayed write
		// is deterministic without the replayer tracking versions.
		tc.out = AppendSet(tc.out[:0], req.Key, uint32(req.ID), size)
	default:
		tc.out = AppendGet(tc.out[:0], req.Key)
	}
	if tc.sock == nil {
		tc.pending = append(tc.pending, append([]byte(nil), tc.out...))
		return
	}
	tc.sock.Send(tc.out)
}

func (tc *traceConn) onData(s *simnet.Socket) {
	tc.fr.FeedFrom(s)
	for {
		op, _, ok := tc.fr.Next()
		if !ok {
			return
		}
		if op != OpSet && op != OpGet {
			tc.set.Errors = append(tc.set.Errors,
				fmt.Sprintf("trace client %d: unexpected response op %q", tc.idx, op))
			continue
		}
		tc.set.Completed++
		tc.set.Rep.Completed(tc.idx)
	}
}

// NewTraceClientSet connects one client per trace client index against
// serverIP and returns the driver; call Start to fire the arrivals.
// Clients live on 10.2.x.x so they never collide with the uniform
// client set's 10.1.x.x addresses.
func NewTraceClientSet(cl *core.Cluster, prof Profile, serverIP simnet.Addr, tr *traffic.Trace, slo traffic.SLO) *TraceClientSet {
	set := &TraceClientSet{cl: cl, prof: prof, Judge: traffic.NewJudge(slo)}
	set.Rep = traffic.NewReplayer(cl.Clock, tr, set.Judge)
	for i := 0; i < tr.Header.Clients; i++ {
		tc := &traceConn{set: set, idx: i}
		set.conns = append(set.conns, tc)
		set.Rep.SetConn(i, tc)
		st := cl.NewClient(simnet.Addr(fmt.Sprintf("10.2.%d.%d", i/250, i%250+1)))
		st.Connect(serverIP, prof.Port, func(s *simnet.Socket) {
			tc.sock = s
			s.OnData = tc.onData
			for _, f := range tc.pending {
				s.Send(f)
			}
			tc.pending = nil
		})
	}
	return set
}

// Start fires the trace's arrivals from t; SLO window 0 anchors there.
func (set *TraceClientSet) Start(t simtime.Time) { set.Rep.Start(t) }

// Finish evaluates the SLO windows up to end.
func (set *TraceClientSet) Finish(end simtime.Time) traffic.Report {
	return set.Judge.Finish(end)
}
