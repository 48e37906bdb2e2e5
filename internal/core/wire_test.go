package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mirror/internal/dict"
)

// memConn is a codec transport over an in-memory reader and writer.
type memConn struct {
	io.Reader
	io.Writer
}

func (memConn) Close() error { return nil }

// wireMsg is one message to put on the wire: a method name (request) or
// an error text (response), and its body.
type wireMsg struct {
	name string
	body any
}

// captureRequests runs msgs through the client codec and returns the bytes
// it wrote after the hello: what a server reads off the connection.
func captureRequests(t testing.TB, msgs []wireMsg) []byte {
	t.Helper()
	var buf bytes.Buffer
	cc := newWireClientCodec(memConn{Writer: &buf}, "capture")
	for i, m := range msgs {
		if err := cc.WriteRequest(&rpc.Request{ServiceMethod: m.name, Seq: uint64(i)}, m.body); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()[len(wireHello):]
}

// captureResponses is captureRequests for the server codec's responses.
func captureResponses(t testing.TB, msgs []wireMsg) []byte {
	t.Helper()
	var buf bytes.Buffer
	sc := newWireServerCodec(memConn{Writer: &buf})
	for i, m := range msgs {
		if err := sc.WriteResponse(&rpc.Response{Error: m.name, Seq: uint64(i)}, m.body); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()[len(wireHello):]
}

// afterHello is a connection's input: the hello, then b.
func afterHello(b []byte) io.Reader {
	return io.MultiReader(bytes.NewReader(wireHello), bytes.NewReader(b))
}

// wireRequests names the argument type of each method the fuzz seeds call:
// every fixed layout plus two gob ones.
var wireRequests = []struct {
	method string
	args   func() any
}{
	{"Mirror.Run", func() any { return new(Query) }},
	{"Mirror.MoaQuery", func() any { return new(MoaQueryArgs) }},
	{"Mirror.ShardQuery", func() any { return new(ShardQueryArgs) }},
	{"Mirror.RaiseTheta", func() any { return new(RaiseThetaArgs) }},
	{"Mirror.Stats", func() any { return new(dict.Empty) }},
	{"Mirror.SessionFeedback", func() any { return new(SessionFeedbackArgs) }},
	{"Mirror.AddImage", func() any { return new(AddImageArgs) }},
}

func sampleRequests() []wireMsg {
	return []wireMsg{
		{"Mirror.Run", Query{Stmt: StmtAnnotation, Text: "kelp foam buoy", K: 10}},
		{"Mirror.MoaQuery", MoaQueryArgs{Source: "count(ImageLibraryInternal);", QueryTerms: []string{"sea", ""}, K: 3}},
		{"Mirror.ShardQuery", ShardQueryArgs{Stmt: StmtDual, Query: []string{"harbor", "gull"}, Concepts: []string{"c1", "c2"}, Weights: []float64{0.5, 1.5}, K: 10, Tag: 7, ThetaFloor: math.Inf(-1), ScanID: 42}},
		{"Mirror.ShardQuery", ShardQueryArgs{Source: "count(ImageLibraryInternal);", Query: []string{}, K: 1 << 62}},
		{"Mirror.RaiseTheta", RaiseThetaArgs{ScanID: 42, Theta: 1.25}},
		{"Mirror.Stats", dict.Empty{}},
		{"Mirror.SessionFeedback", SessionFeedbackArgs{Session: Session{Text: "harbor", Concepts: []string{"c1", "c2"}, Weights: []float64{2, 0.5}, Round: 1}, Relevant: []uint64{1, 2}, Nonrelevant: []uint64{9}}},
		{"Mirror.AddImage", AddImageArgs{URL: "img://x", Annotation: "sea", PPM: []byte("P6 1 1 255 abc")}},
		{"Mirror.SessionFeedback", SessionFeedbackArgs{Session: Session{Round: 4}}}, // a second gob body: no type descriptor
		{"Mirror.Run", Query{Stmt: StmtDual, Text: "harbor", K: 5}},
		{"Mirror.Run", Query{Stmt: StmtDual, Text: "harbor gull", Terms: []string{"c1", "c2"}, Weights: []float64{2, 0.5}, K: 10}}, // a session round
		{"Mirror.Run", Query{Stmt: StmtDual, Text: "tide", Weights: []float64{}, K: 1 << 62}},                                      // a round without concepts
		{"Mirror.Run", Query{Stmt: numStmts, Terms: []string{"c1"}, Weights: []float64{math.NaN(), -1, math.Inf(1)}}},
	}
}

// wireReplies lists the reply types the fuzz seeds decode, in the order
// sampleResponses sends them.
var wireReplies = []func() any{
	func() any { return new(TextQueryReply) },
	func() any { return new(MoaQueryReply) },
	func() any { return new(ShardQueryReply) },
	func() any { return new(dict.Empty) },
	func() any { return new(StatsReply) },
	func() any { return new(ShardSyncReply) },
}

func sampleResponses() []wireMsg {
	return []wireMsg{
		{"", &TextQueryReply{Hits: []WireHit{{OID: 1, URL: "img://a", Score: 0.5}, {OID: 9, Score: -1}}, Epoch: 3, EpochDocs: 40}},
		{"", &MoaQueryReply{Scalar: "24", Epoch: 1, EpochDocs: 24}},
		{"", &ShardQueryReply{OIDs: []uint64{4, 2}, Scores: []float64{1, 0}, Values: []string{"", "x"}, Floats: []bool{true, false}, Theta: 0.75}},
		{"", &dict.Empty{}},
		{"", &StatsReply{Size: 10, Indexed: true, Epoch: 2}},
		{"", &ShardSyncReply{Recs: [][]byte{{1, 2}, {3}}, Nonce: 5, Pos: 6}},
		{"core: index not built", nil},
	}
}

// FuzzWireServerCodec feeds arbitrary bytes after the hello through the
// server codec, into every fixed-layout argument type and two gob ones:
// each decoder must return an error, never panic or over-allocate.
func FuzzWireServerCodec(f *testing.F) {
	reqs := sampleRequests()
	f.Add(captureRequests(f, reqs))
	for i := range reqs {
		f.Add(captureRequests(f, reqs[i:i+1]))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		sc := newWireServerCodec(memConn{Reader: afterHello(in), Writer: io.Discard})
		for i := 0; ; i++ {
			var req rpc.Request
			if sc.ReadRequestHeader(&req) != nil {
				return
			}
			var args any
			for _, w := range wireRequests {
				if w.method == req.ServiceMethod {
					args = w.args()
				}
			}
			if k := i % (len(wireRequests) + 1); args == nil && k < len(wireRequests) {
				args = wireRequests[k].args()
			}
			sc.ReadRequestBody(args) // an error is fine; a panic is not
		}
	})
}

// FuzzWireClientCodec is FuzzWireServerCodec for the client codec and the
// reply types.
func FuzzWireClientCodec(f *testing.F) {
	resps := sampleResponses()
	f.Add(captureResponses(f, resps))
	for i := range resps {
		f.Add(captureResponses(f, resps[i:i+1]))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		cc := newWireClientCodec(memConn{Reader: afterHello(in), Writer: io.Discard}, "fuzz")
		for i := 0; ; i++ {
			var resp rpc.Response
			if cc.ReadResponseHeader(&resp) != nil {
				return
			}
			var reply any
			if resp.Error == "" {
				reply = wireReplies[i%len(wireReplies)]()
			}
			cc.ReadResponseBody(reply)
		}
	})
}

// TestWireMatchesGob: every fixed layout decodes to exactly what a gob
// round trip of the same value yields — nil for empty slices, −∞ and NaN
// kept, empty strings kept — except a Query and a leg, whose lists keep
// their nil-ness (an empty weight list makes a session round): those
// decode to exactly the value sent.
func TestWireMatchesGob(t *testing.T) {
	nan := math.NaN()
	args := []any{
		&Query{},
		&Query{Stmt: StmtDual, Text: "sea sand", K: 10},
		&Query{K: -1},
		&Query{Stmt: StmtDual, Terms: []string{}, Weights: []float64{}},
		&Query{Stmt: 200, Terms: []string{"a", ""}, Weights: []float64{nan, 0, math.Inf(1)}, K: 1 << 62},
		&MoaQueryArgs{},
		&MoaQueryArgs{Source: "count(ImageLibraryInternal);", QueryTerms: []string{}, K: 5},
		&MoaQueryArgs{QueryTerms: []string{"", "water"}},
		&ShardQueryArgs{Stmt: StmtAnnotation, Query: []string{"x"}, K: 10, Tag: 3, ThetaFloor: math.Inf(-1), ScanID: 1<<63 + 5},
		&ShardQueryArgs{Stmt: StmtDual, Query: []string{}, Concepts: []string{"a", ""}, Weights: []float64{nan, 0, math.Inf(1)}, ThetaFloor: nan},
		&ShardQueryArgs{Source: "count(ImageLibraryInternal);", Concepts: []string{}, Weights: []float64{}},
		&RaiseThetaArgs{ScanID: 9, Theta: math.Inf(-1)},
		&RaiseThetaArgs{Theta: nan},
		&dict.Empty{},
	}
	args = withRandom(t, args, &Query{}, &MoaQueryArgs{}, &ShardQueryArgs{}, &RaiseThetaArgs{})
	for _, v := range args {
		sc := newWireServerCodec(memConn{Reader: afterHello(captureRequests(t, []wireMsg{{"Mirror.X", v}}))})
		var req rpc.Request
		if err := sc.ReadRequestHeader(&req); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if sc.kind == bodyGob {
			t.Errorf("%T travelled as gob, want a fixed layout", v)
		}
		got := newLike(v)
		if err := sc.ReadRequestBody(got); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		want := gobRoundTrip(t, v)
		switch v.(type) {
		case *Query, *ShardQueryArgs:
			want = v
		}
		if !sameValue(got, want) {
			t.Errorf("wire %#v, gob %#v", got, want)
		}
	}

	replies := []any{
		&TextQueryReply{Epoch: 2, EpochDocs: 8}, // zero hits
		&TextQueryReply{Hits: []WireHit{}, Epoch: 2, EpochDocs: 8},
		&TextQueryReply{Hits: []WireHit{{OID: 1, URL: "img://a", Score: 0.25}, {OID: 1 << 40, URL: "", Score: nan}, {URL: "img://ü"}}, Epoch: 7, EpochDocs: 100},
		&MoaQueryReply{Scalar: "24", Epoch: 3, EpochDocs: 24}, // scalar
		&MoaQueryReply{OIDs: []uint64{3, 1}, Values: []string{"0.5", ""}, Epoch: 3},
		&MoaQueryReply{OIDs: []uint64{}, Values: []string{}},
		&ShardQueryReply{OIDs: []uint64{5, 6, 7}, Scores: []float64{1.5, 0, 0}, Values: []string{"", "tiger", "{1 2}"}, Floats: []bool{true, false, false}, Theta: math.Inf(-1)}, // mixed values
		&ShardQueryReply{OIDs: []uint64{5}, Scores: []float64{2}, Theta: 2},
		&ShardQueryReply{OIDs: []uint64{}, Scores: []float64{}, Values: []string{}, Floats: []bool{}, Theta: nan},
		&dict.Empty{},
	}
	replies = withRandom(t, replies, &TextQueryReply{}, &MoaQueryReply{}, &ShardQueryReply{})
	for _, v := range replies {
		cc := newWireClientCodec(memConn{Reader: afterHello(captureResponses(t, []wireMsg{{"", v}}))}, "test")
		var resp rpc.Response
		if err := cc.ReadResponseHeader(&resp); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if cc.kind == bodyGob {
			t.Errorf("%T travelled as gob, want a fixed layout", v)
		}
		got := newLike(v)
		if err := cc.ReadResponseBody(got); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if want := gobRoundTrip(t, v); !sameValue(got, want) {
			t.Errorf("wire %#v, gob %#v", got, want)
		}
	}
}

// withRandom appends random values of each prototype's type, every field
// set, so a field added to one of these types but not to its layout fails
// the comparison.
func withRandom(t *testing.T, vs []any, protos ...any) []any {
	rng := rand.New(rand.NewSource(1))
	for _, p := range protos {
		typ := reflect.TypeOf(p).Elem()
		for i := 0; i < 20; i++ {
			v, ok := quick.Value(typ, rng)
			if !ok {
				t.Fatalf("cannot generate a %v", typ)
			}
			ptr := reflect.New(typ)
			ptr.Elem().Set(v)
			vs = append(vs, ptr.Interface())
		}
	}
	return vs
}

func newLike(v any) any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }

func gobRoundTrip(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := newLike(v)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameValue is reflect.DeepEqual, except that NaN equals NaN: these types
// hold no pointers, so their %#v renderings compare the same way.
func sameValue(a, b any) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// TestWireRefusesGobClient: a gob net/rpc client, one that predates the
// framed wire, gets an rpc.ServerError naming the wire version — which a
// router treats as authoritative, not as a dead member to fail over from.
func TestWireRefusesGobClient(t *testing.T) {
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := Serve(m, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient(conn)
	defer c.Close()
	err = c.Call("Mirror.Stats", dict.Empty{}, new(StatsReply))
	var se rpc.ServerError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), fmt.Sprintf("wire v%d", wireVersion)) {
		t.Fatalf("gob client against a wire server: %v, want an rpc.ServerError naming wire v%d", err, wireVersion)
	}
}

// TestWireClientRefusesGobServer: a wire client facing a gob net/rpc
// server fails its first call with a handshake error, promptly, and not
// as an rpc.ServerError (a router fails over from such a member).
func TestWireClientRefusesGobServer(t *testing.T) {
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Mirror", &Service{m: m}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	c, err := DialMirrorTimeout(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Stats()
	var se rpc.ServerError
	if err == nil || errors.As(err, &se) || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("wire client against a gob server: %v, want a handshake error", err)
	}
}

// TestWireVersionMismatch: framed peers of different versions refuse each
// other, both naming the versions.
func TestWireVersionMismatch(t *testing.T) {
	newer := append(wireMagic[:], wireVersion+1)

	// A newer client, a v2 one whose session calls carried IDs, or a v3
	// one that still calls TextQuery and SessionRun, against this server
	// gets the server's hello and a hang-up.
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := Serve(m, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, hello := range [][]byte{newer, append(wireMagic[:], 2), append(wireMagic[:], 3)} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(conn)
		if err != nil || !bytes.Equal(got, wireHello) {
			t.Fatalf("server answered hello %x with %x, %v; want its own hello %x and EOF", hello, got, err, wireHello)
		}
	}

	// This client against a newer server names both versions.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(newer)
		io.Copy(io.Discard, conn)
	}()
	c, err := DialMirrorTimeout(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Stats()
	want := fmt.Sprintf("wire v%d, this client v%d", wireVersion+1, wireVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("client against a newer server: %v, want %q", err, want)
	}
}

// TestWireSharedConnection: goroutines multiplexing fixed-layout and gob
// calls over one connection, replies landing in completion order, each
// get their own answer — the gob streams stay in step on both sides.
func TestWireSharedConnection(t *testing.T) {
	urls, anns := refreshCorpus(400, 7)
	m := oneShotStub(t, urls, anns)
	addr, stop, err := Serve(m, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := DialMirror(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	texts := []string{"kelp foam buoy", "harbor", "sea sand"}
	want := make([]*TextQueryReply, len(texts))
	for i, text := range texts {
		if want[i], err = c.TextQueryStamped(text, 5, false); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				i := (g + it) % len(texts)
				got, err := c.TextQueryStamped(texts[i], 5, false)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("TextQuery %q: %+v, %v; want %+v", texts[i], got, err, want[i])
					return
				}
				st, err := c.Stats()
				if err != nil || st.Size != len(urls) {
					t.Errorf("Stats: %+v, %v; want size %d", st, err, len(urls))
					return
				}
				if _, err := c.MoaQuery("count(", nil); err == nil {
					t.Error("a malformed MoaQuery succeeded")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// wireHopAllocs pins one warm result-cache-hit TextQueryStamped round trip
// with 10 hits over loopback, client and server in one process, measured
// at 18 with go1.24 on linux/amd64. Under gob the same call allocated 35.
const wireHopAllocs = 18

// TestWireHopAllocsPinned is the deterministic counter behind the hop's
// claimed latency gain: a change that puts per-call encoding garbage back
// on the wire path fails here, not in a noisy timing.
func TestWireHopAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	urls, anns := refreshCorpus(400, 7)
	m := oneShotStub(t, urls, anns)
	m.SetResultCache(1 << 20)
	addr, stop, err := Serve(m, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := DialMirror(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const text, k = "kelp foam buoy", 10
	rep, err := c.TextQueryStamped(text, k, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hits) != k {
		t.Fatalf("warm-up returned %d hits, want %d", len(rep.Hits), k)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := c.TextQueryStamped(text, k, false); err != nil {
			t.Fatal(err)
		}
	})
	if st := m.ResultCacheStats(); st.Hits < 200 {
		t.Fatalf("the measured calls were not result-cache hits: %+v", st)
	}
	t.Logf("warm cache-hit TextQueryStamped round trip: %.0f allocs/op (pinned %d, 35 under gob)", got, wireHopAllocs)
	if got > wireHopAllocs {
		t.Fatalf("a cache-hit round trip allocates %.0f objects/op, over the pinned %d", got, wireHopAllocs)
	}
}

// shardLegAllocs pins one ranked ShardQuery leg round trip (k = 10 over
// one of two shards of a 400-document engine, client and server in one
// process), measured at 104 with go1.24 on linux/amd64. A by-value
// ShardQueryArgs costs one more: net/rpc's dispatch boxes the 16-word
// argument on every leg.
const shardLegAllocs = 104

// TestShardLegAllocsPinned is TestWireHopAllocsPinned for the router's
// hop: a change that adds per-leg garbage to the shard side fails here.
func TestShardLegAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	urls, anns := refreshCorpus(400, 7)
	m := buildShardedIncremental(t, 2, urls, anns, 100, 100).shards[0]
	addr, stop, err := Serve(m, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := DialMirror(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := ShardQueryArgs{Stmt: StmtAnnotation, Query: []string{"kelp", "foam", "buoy"}, K: 10,
		Tag: m.currentEpoch().Tag, ThetaFloor: math.Inf(-1)}
	leg, err := c.ShardQuery(args)
	if err != nil {
		t.Fatal(err)
	}
	if len(leg.rows) != args.K {
		t.Fatalf("warm-up leg returned %d rows, want %d", len(leg.rows), args.K)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := c.ShardQuery(args); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ranked ShardQuery leg round trip: %.0f allocs/op (pinned %d)", got, shardLegAllocs)
	if got > shardLegAllocs {
		t.Fatalf("a shard leg round trip allocates %.0f objects/op, over the pinned %d", got, shardLegAllocs)
	}
}
