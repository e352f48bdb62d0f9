package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/persist"
	"gcplus/internal/shardhost"
)

// Golden on-wire bytes: every loopback frame kind, pinned in
// testdata/frames.golden as one "name hex" line per frame. Request
// frames are captured from a real LoopbackClient writing to a recording
// listener; reply frames are rendered from fixed replies and fed back
// to that client, which must decode them into the replies they came
// from. Regenerate deliberately with
//
//	go test ./internal/transport -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata")

const goldenFramesFile = "frames.golden"

// readRawFrame reads one whole frame (header included) off r.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > 1<<20 {
		return nil, fmt.Errorf("golden: frame of %d bytes", n)
	}
	frame := make([]byte, 8+n)
	copy(frame, hdr[:])
	_, err := io.ReadFull(r, frame[8:])
	return frame, err
}

func goldenSnapshot() *persist.ShardSnapshot {
	return &persist.ShardSnapshot{
		Epoch:         7,
		Dataset:       &dataset.Snapshot{Graphs: []*graph.Graph{graph.Path(1, 2), nil}, Seq: 4},
		LocalToGlobal: []int{1, 3},
	}
}

var goldenStats = core.QueryStats{
	Kind: cache.KindSub, CandidatesBefore: 30, SubIsoTests: 9, SearchStates: 1234, TestsSaved: 4,
	ContainingHits: 1, ContainedHits: 2, IsoHits: 1, ExactHit: false, EmptyShortcut: true,
	QueryTime: 310 * time.Microsecond, VerifyTime: 200 * time.Microsecond, VerifyCPUTime: 390 * time.Microsecond,
	VerifyWorkers: 2, HitTime: 12 * time.Microsecond, HitScanned: 17, HitCandidates: 3,
	Overhead: 40 * time.Microsecond, ConsistencyTime: 5 * time.Microsecond, CacheBypassed: false,
	PlanTime: 8 * time.Microsecond, PlanAlgorithm: "VF2+", PlanCached: true, Truncated: true,
}

// goldenStep is one client call, the reply frame the fake server
// answers it with, and the decoded reply the client must produce.
type goldenStep struct {
	req, rep string // golden frame names
	call     func(c *LoopbackClient, done func())
	reply    []byte
	check    func(t *testing.T)
}

func goldenScript() []goldenStep {
	var (
		q1   shardhost.QueryReply
		q2   shardhost.QueryReply
		q8   shardhost.QueryReply
		o3   shardhost.OpReply
		o9   shardhost.OpReply
		w4   shardhost.WALAppendReply
		w10  shardhost.WALAppendReply
		w11  shardhost.WALAppendReply
		sn6  shardhost.SnapshotReply
		sn12 shardhost.SnapshotReply
		st7  shardhost.StatsReply
	)
	want1 := &shardhost.QueryReply{IDs: []int{2, 5, 11, 40}, Stats: goldenStats, HostNanos: 412_000, QueueNanos: 4200}
	want2 := &shardhost.QueryReply{IDs: []int{7}, Stats: core.QueryStats{Kind: cache.KindSuper, CandidatesBefore: 1, SubIsoTests: 1},
		HostNanos: 95_000, QueueNanos: 1000}
	want8 := &shardhost.QueryReply{Err: &core.CancelError{Stage: "verify", Err: context.DeadlineExceeded},
		HostNanos: 2_000_000, QueueNanos: 300}
	snap := goldenSnapshot()
	snapPayload, err := persist.EncodeShardSnapshot(snap)
	if err != nil {
		panic(err)
	}
	stats := &shardhost.StatsReply{LiveGraphs: 31, LogSeq: 4, HitRate: 0.5, ValidityRatio: 0.75, QueueLen: 1,
		WALBytes: 94, WALAppends: 3, DurableEpoch: 7}
	noWAL := &statusError{status: StatusInternal, msg: "serve: shard 1 has no open WAL segment"}
	idle := shardhost.Signals{}
	busy := shardhost.Signals{QueueLen: 3, PendingRepairs: 7}

	queryCall := func(r *shardhost.QueryReply, req *shardhost.QueryRequest) func(*LoopbackClient, func()) {
		return func(c *LoopbackClient, done func()) { c.Query(context.Background(), req, r, done) }
	}
	checkQuery := func(got, want *shardhost.QueryReply) func(*testing.T) {
		return func(t *testing.T) {
			if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) || StatusOf(got.Err) != StatusOf(want.Err) ||
				!reflect.DeepEqual(got.IDs, want.IDs) || got.Stats != want.Stats ||
				got.HostNanos != want.HostNanos || got.QueueNanos != want.QueueNanos {
				t.Fatalf("query reply decoded as\n %+v\nwant\n %+v", got, want)
			}
		}
	}
	walBody := func(r *shardhost.WALAppendReply) func([]byte) []byte {
		return func(dst []byte) []byte { return appendWALReply(dst, r) }
	}
	checkWAL := func(got *shardhost.WALAppendReply, want *shardhost.WALAppendReply) func(*testing.T) {
		return func(t *testing.T) {
			if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) || StatusOf(got.Err) != StatusOf(want.Err) || got.Nanos != want.Nanos {
				t.Fatalf("WAL reply decoded as %+v, want %+v", got, want)
			}
		}
	}
	wantW4 := &shardhost.WALAppendReply{Err: noWAL}
	wantW10 := &shardhost.WALAppendReply{Nanos: 183_000}
	wantW11 := &shardhost.WALAppendReply{Err: &DurabilityError{Epoch: 9, Shard: 1, Err: errors.New("disk full")}, Nanos: 51_000}
	wantO9 := &shardhost.OpReply{ID: -1, Err: &OverloadError{Kind: "update", Limit: 4}}

	return []goldenStep{
		{req: "query", rep: "reply_query", reply: appendReplyFrame(nil, 1, msgQuery, busy, func(d []byte) []byte { return AppendQueryReply(d, want1) }),
			call: queryCall(&q1, &shardhost.QueryRequest{Kind: cache.KindSub, Query: graph.Path(1, 2),
				Opts: core.QueryOptions{Limit: 3, MaxVerifyParallelism: 2}}),
			check: checkQuery(&q1, want1)},
		{req: "query_traced", rep: "reply_query_traced", reply: appendReplyFrame(nil, 2, msgQuery, idle, func(d []byte) []byte { return AppendQueryReply(d, want2) }),
			call: queryCall(&q2, &shardhost.QueryRequest{Kind: cache.KindSuper, Query: graph.Star(2, 1, 3),
				Opts: core.QueryOptions{BypassCache: true, TraceID: 0xfeed}}),
			check: checkQuery(&q2, want2)},
		{req: "apply_op", rep: "reply_apply_op", reply: appendReplyFrame(nil, 3, msgApplyOp, idle, func(d []byte) []byte { return appendOpReply(d, &shardhost.OpReply{ID: 60}) }),
			call: func(c *LoopbackClient, done func()) {
				c.ApplyOp(&shardhost.OpRequest{Op: changeplan.AddOp(graph.Path(3, 1, 4)), GlobalID: 60}, &o3, done)
			},
			check: func(t *testing.T) {
				if o3.ID != 60 || o3.Err != nil {
					t.Fatalf("op reply decoded as %+v", o3)
				}
			}},
		{req: "append_wal", rep: "reply_append_wal_no_segment", reply: appendReplyFrame(nil, 4, msgAppendWAL, idle, walBody(wantW4)),
			call:  func(c *LoopbackClient, done func()) { c.AppendWAL(7, &w4, done) },
			check: checkWAL(&w4, wantW4)},
		{req: "sync", rep: "reply_sync", reply: appendReplyFrame(nil, 5, msgSync, idle, func(d []byte) []byte { return d }),
			call: func(c *LoopbackClient, done func()) { c.Sync(done) }, check: func(*testing.T) {}},
		{req: "snapshot", rep: "reply_snapshot", reply: appendReplyFrame(nil, 6, msgSnapshot, idle, func(d []byte) []byte { return appendSnapshotReply(d, &shardhost.SnapshotReply{Snap: snap}) }),
			call: func(c *LoopbackClient, done func()) { c.Snapshot(7, &sn6, done) },
			check: func(t *testing.T) {
				if sn6.RotateErr != nil || !bytes.Equal(sn6.Payload, snapPayload) {
					t.Fatalf("snapshot reply decoded as err=%v payload=%d bytes", sn6.RotateErr, len(sn6.Payload))
				}
			}},
		{req: "stats", rep: "reply_stats", reply: appendReplyFrame(nil, 7, msgStats, idle, func(d []byte) []byte { return appendStatsReply(d, stats) }),
			call: func(c *LoopbackClient, done func()) { c.Stats(&st7, done) },
			check: func(t *testing.T) {
				if !reflect.DeepEqual(&st7, stats) {
					t.Fatalf("stats reply decoded as %+v, want %+v", st7, *stats)
				}
			}},
		{req: "query_2", rep: "reply_query_canceled", reply: appendReplyFrame(nil, 8, msgQuery, busy, func(d []byte) []byte { return AppendQueryReply(d, want8) }),
			call:  queryCall(&q8, &shardhost.QueryRequest{Kind: cache.KindSub, Query: graph.Path(1)}),
			check: checkQuery(&q8, want8)},
		{req: "apply_op_2", rep: "reply_apply_op_overload", reply: appendReplyFrame(nil, 9, msgApplyOp, idle, func(d []byte) []byte { return appendOpReply(d, wantO9) }),
			call: func(c *LoopbackClient, done func()) {
				c.ApplyOp(&shardhost.OpRequest{Op: changeplan.DeleteOp(4), GlobalID: 9}, &o9, done)
			},
			check: func(t *testing.T) {
				if o9.ID != -1 || !IsOverload(o9.Err) || o9.Err.Error() != wantO9.Err.Error() {
					t.Fatalf("op reply decoded as %+v", o9)
				}
			}},
		{req: "append_wal_2", rep: "reply_append_wal", reply: appendReplyFrame(nil, 10, msgAppendWAL, idle, walBody(wantW10)),
			call:  func(c *LoopbackClient, done func()) { c.AppendWAL(8, &w10, done) },
			check: checkWAL(&w10, wantW10)},
		{req: "append_wal_3", rep: "reply_append_wal_durability", reply: appendReplyFrame(nil, 11, msgAppendWAL, busy, walBody(wantW11)),
			call:  func(c *LoopbackClient, done func()) { c.AppendWAL(9, &w11, done) },
			check: checkWAL(&w11, wantW11)},
		{req: "snapshot_2", rep: "reply_snapshot_closed", reply: appendReplyFrame(nil, 12, msgSnapshot, idle, func(d []byte) []byte {
			return appendSnapshotReply(d, &shardhost.SnapshotReply{RotateErr: ErrClosed})
		}),
			call: func(c *LoopbackClient, done func()) { c.Snapshot(8, &sn12, done) },
			check: func(t *testing.T) {
				if sn12.RotateErr != ErrClosed || sn12.Payload != nil {
					t.Fatalf("snapshot reply decoded as %+v", sn12)
				}
			}},
	}
}

// readGolden parses the golden frames file into name → frame bytes,
// keeping the file order in names.
func readGolden(t *testing.T) (frames map[string][]byte, names []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", goldenFramesFile))
	if err != nil {
		t.Fatal(err)
	}
	frames = make(map[string][]byte)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		b, err := hex.DecodeString(hx)
		if !ok || err != nil {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		frames[name] = b
		names = append(names, name)
	}
	return frames, names
}

// TestGoldenLoopbackFrames pins every request frame the client writes
// and every reply frame kind, and checks the client decodes each golden
// reply into the reply it was rendered from.
func TestGoldenLoopbackFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
		close(accepted)
	}()
	c, err := DialLoopback(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	if srv == nil {
		t.Fatal("accept failed")
	}
	defer srv.Close()

	var out bytes.Buffer
	record := func(name string, frame []byte) {
		fmt.Fprintf(&out, "%s %x\n", name, frame)
	}
	hello, err := readRawFrame(srv)
	if err != nil {
		t.Fatal(err)
	}
	record("hello", hello)
	script := goldenScript()
	for _, st := range script {
		done := make(chan struct{})
		st.call(c, func() { close(done) })
		req, err := readRawFrame(srv)
		if err != nil {
			t.Fatalf("%s: %v", st.req, err)
		}
		record(st.req, req)
		if _, err := srv.Write(st.reply); err != nil {
			t.Fatal(err)
		}
		<-done
		st.check(t)
	}
	c.sendCancel(2)
	cancel, err := readRawFrame(srv)
	if err != nil {
		t.Fatal(err)
	}
	record("cancel", cancel)
	for _, st := range script {
		record(st.rep, st.reply)
	}

	path := filepath.Join("testdata", goldenFramesFile)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("frame line %d differs from the golden file:\n got %s\nwant %s", i, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("golden file has %d lines, got %d", len(wantLines), len(gotLines))
	}
}

// TestGoldenServerReplies replays the golden request frames into a real
// server: replies whose content is deterministic (an ADD, a WAL append
// on a host without a segment, SYNC) must match their golden frames
// byte for byte, and every other golden request must be accepted and
// answered under its own id and type.
func TestGoldenServerReplies(t *testing.T) {
	golden, _ := readGolden(t)
	hosts := newTestHosts(t, 2, shardhost.Config{})
	srv, err := ServeLoopback(hosts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(req string) []byte {
		t.Helper()
		if _, err := conn.Write(golden[req]); err != nil {
			t.Fatal(err)
		}
		rep, err := readRawFrame(conn)
		if err != nil {
			t.Fatalf("%s: %v", req, err)
		}
		return rep
	}
	if _, err := conn.Write(golden["hello"]); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{"apply_op", "reply_apply_op"},
		{"append_wal", "reply_append_wal_no_segment"},
		{"sync", "reply_sync"},
	} {
		if got := exchange(pair[0]); !bytes.Equal(got, golden[pair[1]]) {
			t.Fatalf("%s: server replied %x, golden %s is %x", pair[0], got, pair[1], golden[pair[1]])
		}
	}
	for _, req := range []string{"query", "query_traced", "snapshot", "stats"} {
		frame := golden[req]
		rep := exchange(req)
		// Header: msgReply, the request's id and type (request payloads
		// start with type then id; both are single bytes here).
		if rep[8] != msgReply || rep[9] != frame[9] || rep[10] != frame[8] {
			t.Fatalf("%s: reply header %x does not answer request %x", req, rep[8:11], frame[8:10])
		}
		if req == "query" || req == "query_traced" {
			// Then the queue and repair samples, one byte each while
			// below 128.
			if rep[11] >= 0x80 || rep[12] >= 0x80 {
				t.Fatalf("%s: unexpected pressure sample %x", req, rep[11:13])
			}
			var r shardhost.QueryReply
			if err := DecodeQueryReply(rep[13:], &r); err != nil || r.Err != nil {
				t.Fatalf("%s: reply %v / %v", req, err, r.Err)
			}
		}
	}
}
