package transport

// Wire-codec fuzzers: every decoder must reject malformed input with an
// error — never panic, never over-allocate, never silently truncate.
// Each fuzzer seeds its corpus with real encodes (so coverage starts on
// the happy path and mutates outward) and, when a mutated input does
// decode, closes the loop: re-encoding the decoded value must reproduce
// a payload that decodes to the same thing.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/shardhost"
	"gcplus/internal/wire"
)

func fuzzSeedGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(1, 2),
		graph.Path(3, 1, 4, 1),
		graph.Star(2, 5, 6, 7),
	}
}

func FuzzWireQuery(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		f.Add(AppendQueryRequest(nil, &shardhost.QueryRequest{
			Kind:  cache.KindSub,
			Query: g,
			Opts:  core.QueryOptions{Limit: 3, MaxVerifyParallelism: 2},
		}, 250*time.Millisecond))
		f.Add(AppendQueryRequest(nil, &shardhost.QueryRequest{
			Kind:  cache.KindSuper,
			Query: g,
			Opts:  core.QueryOptions{BypassCache: true},
		}, 0))
		f.Add(AppendQueryRequest(nil, &shardhost.QueryRequest{
			Kind:  cache.KindSub,
			Query: g,
			Opts:  core.QueryOptions{TraceID: 0xfeed},
		}, time.Second))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, deadline, err := DecodeQueryRequest(data)
		if err != nil {
			return
		}
		if req.Query == nil {
			t.Fatal("decoded query request without a graph")
		}
		if req.Kind != cache.KindSub && req.Kind != cache.KindSuper {
			t.Fatalf("decoded invalid kind %d", req.Kind)
		}
		if req.Opts.Limit < 0 || req.Opts.MaxVerifyParallelism < 0 || deadline < 0 {
			t.Fatalf("decoded negative field: %+v deadline %v", req.Opts, deadline)
		}
		re := AppendQueryRequest(nil, req, deadline)
		req2, deadline2, err := DecodeQueryRequest(re)
		if err != nil {
			t.Fatalf("re-encode of a decoded request failed to decode: %v", err)
		}
		if deadline2 != deadline || req2.Kind != req.Kind ||
			req2.Opts.Limit != req.Opts.Limit ||
			req2.Opts.BypassCache != req.Opts.BypassCache ||
			req2.Opts.MaxVerifyParallelism != req.Opts.MaxVerifyParallelism {
			t.Fatalf("round trip diverged: %+v/%v vs %+v/%v", req, deadline, req2, deadline2)
		}
		if req2.Opts.TraceID != req.Opts.TraceID {
			t.Fatalf("round trip diverged on the trace id: %x vs %x", req.Opts.TraceID, req2.Opts.TraceID)
		}
		if !bytes.Equal(graph.Marshal(req.Query), graph.Marshal(req2.Query)) {
			t.Fatal("round trip diverged on the query graph")
		}
	})
}

func FuzzWireOps(f *testing.F) {
	for i, g := range fuzzSeedGraphs() {
		if b, err := AppendOpRequest(nil, &shardhost.OpRequest{Op: changeplan.AddOp(g), GlobalID: 40 + i}); err == nil {
			f.Add(b)
		}
	}
	for _, op := range []changeplan.Op{
		changeplan.DeleteOp(7),
		{Type: dataset.OpUpdateAddEdge, GraphID: 3, U: 0, V: 2},
		{Type: dataset.OpUpdateRemoveEdge, GraphID: 3, U: 1, V: 2},
	} {
		if b, err := AppendOpRequest(nil, &shardhost.OpRequest{Op: op, GlobalID: 3}); err == nil {
			f.Add(b)
		}
	}
	if b, err := AppendOpRequest(nil, &shardhost.OpRequest{Op: changeplan.DeleteOp(2), GlobalID: 2}); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeOpRequest(data)
		if err != nil {
			return
		}
		if req.GlobalID < 0 {
			t.Fatalf("decoded negative global id %d", req.GlobalID)
		}
		if req.Op.Type == dataset.OpAdd && req.Op.Graph == nil {
			t.Fatal("decoded ADD without a graph")
		}
		re, err := AppendOpRequest(nil, req)
		if err != nil {
			t.Fatalf("re-encode of a decoded op failed: %v", err)
		}
		req2, err := DecodeOpRequest(re)
		if err != nil {
			t.Fatalf("re-encode of a decoded op failed to decode: %v", err)
		}
		if req2.GlobalID != req.GlobalID || req2.Op.Type != req.Op.Type ||
			req2.Op.GraphID != req.Op.GraphID || req2.Op.U != req.Op.U || req2.Op.V != req.Op.V {
			t.Fatalf("round trip diverged: %+v vs %+v", req, req2)
		}
	})
}

func FuzzWireResult(f *testing.F) {
	f.Add(AppendQueryReply(nil, &shardhost.QueryReply{
		IDs:       []int{2, 5, 11, 40},
		Stats:     core.QueryStats{Kind: cache.KindSub, SubIsoTests: 9, TestsSaved: 4, QueryTime: time.Millisecond, PlanAlgorithm: "VF2+", Truncated: true},
		HostNanos: 12345,
	}))
	f.Add(AppendQueryReply(nil, &shardhost.QueryReply{
		Err:       &core.CancelError{Stage: "verify", Err: nil},
		HostNanos: 99,
	}))
	// A protocol-v1 body ends after the error block, without the queue
	// nanos every reply now carries: it must not decode.
	v1 := appendWireError(wire.AppendInt(nil, 0), &OverloadError{Kind: "query", Limit: 8})
	if err := DecodeQueryReply(v1, &shardhost.QueryReply{}); err == nil {
		f.Fatal("a v1 query reply without the trailing extension decoded")
	}
	f.Add(v1)
	f.Add(AppendQueryReply(nil, &shardhost.QueryReply{}))
	// A protocol-v2 error reply is the v3 one followed by a span block
	// (here one "shard" span): the trailing block must not decode.
	v2 := wire.AppendBytes(AppendQueryReply(nil, &shardhost.QueryReply{
		Err:        &core.CancelError{Stage: "verify", Err: nil},
		QueueNanos: 4200,
	}), []byte{1, 9, 1, 0, 5, 's', 'h', 'a', 'r', 'd', 0, 0, 0, 0})
	if err := DecodeQueryReply(v2, &shardhost.QueryReply{}); err == nil {
		f.Fatal("a v2 query reply ending in a span block decoded")
	}
	f.Add(v2)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var reply shardhost.QueryReply
		if err := DecodeQueryReply(data, &reply); err != nil {
			return
		}
		for i := 1; i < len(reply.IDs); i++ {
			if reply.IDs[i] <= reply.IDs[i-1] {
				t.Fatalf("decoded answer ids not strictly ascending: %v", reply.IDs)
			}
		}
		if reply.HostNanos < 0 {
			t.Fatalf("decoded negative host nanos %d", reply.HostNanos)
		}
		re := AppendQueryReply(nil, &reply)
		var reply2 shardhost.QueryReply
		if err := DecodeQueryReply(re, &reply2); err != nil {
			t.Fatalf("re-encode of a decoded reply failed to decode: %v", err)
		}
		if !equalInts(reply.IDs, reply2.IDs) || reply.Stats != reply2.Stats || reply.HostNanos != reply2.HostNanos {
			t.Fatalf("round trip diverged:\n %+v\n %+v", reply, reply2)
		}
		if reply2.QueueNanos != reply.QueueNanos {
			t.Fatalf("round trip diverged on queue nanos: %d vs %d", reply.QueueNanos, reply2.QueueNanos)
		}
		if (reply.Err == nil) != (reply2.Err == nil) {
			t.Fatalf("round trip diverged on error presence: %v vs %v", reply.Err, reply2.Err)
		}
		if reply.Err != nil && reply.Err.Error() != reply2.Err.Error() {
			t.Fatalf("round trip diverged on error text: %q vs %q", reply.Err, reply2.Err)
		}
	})
}

// TestQueryReplyCarriesEveryStat sets every QueryStats field to a
// non-zero value by reflection and round-trips the reply, so a field
// added to QueryStats and forgotten by the codec fails here rather than
// silently reading zero over the loopback transport.
func TestQueryReplyCarriesEveryStat(t *testing.T) {
	var want shardhost.QueryReply
	v := reflect.ValueOf(&want.Stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint8:
			f.SetUint(uint64(cache.KindSuper))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("VF2+")
		default:
			t.Fatalf("QueryStats.%s has kind %s, which this test cannot fill", v.Type().Field(i).Name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("QueryStats.%s left zero", v.Type().Field(i).Name)
		}
	}
	var got shardhost.QueryReply
	if err := DecodeQueryReply(AppendQueryReply(nil, &want), &got); err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats lost on the wire:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
}
