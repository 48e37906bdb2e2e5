package core

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// fuzzWeights decodes little-endian float64s: any bit pattern, so NaN,
// ±Inf, zero, negative and subnormal weights all reach the service.
func fuzzWeights(b []byte) []float64 {
	ws := make([]float64, len(b)/8)
	for i := range ws {
		ws[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return ws
}

func fuzzWeightBytes(ws ...float64) []byte {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
	}
	return b
}

// FuzzServiceArgs feeds hostile but well-formed RPC arguments — any K,
// text, terms and weights (length mismatches, NaN, ±Inf, ≤ 0) — into the
// ranked service calls a remote client or router reaches: ShardQuery on a
// shard member, TextQuery (plain and dual) and SessionRun. Each call must
// return an error or at most N rows, and never panic.
func FuzzServiceArgs(f *testing.F) {
	urls, anns := refreshCorpus(30, 5)
	e, err := NewSharded(1)
	if err != nil {
		f.Fatal(err)
	}
	for i := range urls {
		if err := e.AddImage(urls[i], anns[i], nil); err != nil {
			f.Fatal(err)
		}
	}
	if err := e.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
		f.Fatal(err)
	}
	member := e.shards[0]
	svc := &Service{m: member}
	n := member.Size()
	tag := member.currentEpoch().Tag

	f.Add("dual", int64(10), "harbor gull", "c000 c001", fuzzWeightBytes(0.5, 2), 0.0)
	f.Add("dual", int64(1<<40), "harbor", "c000", fuzzWeightBytes(1), math.Inf(-1))
	f.Add("dual", int64(-3), "tide", "c000 c001 c002", fuzzWeightBytes(1), 0.3)
	f.Add("dual", int64(5), "gull", "c000 c001", fuzzWeightBytes(math.NaN(), math.Inf(1)), math.NaN())
	f.Add("dual", int64(5), "", "c002", fuzzWeightBytes(-1), math.Inf(1))
	f.Add("dual", int64(0), "harbor", "c000 c001", fuzzWeightBytes(0, math.MaxFloat64), 0.0)
	f.Add("ann", int64(1<<62), "harbor harbor", "", []byte{}, 0.0)
	f.Add("content", int64(7), "", "c000 zeppelin", fuzzWeightBytes(math.Inf(-1)), 0.0)
	f.Add("wsum", int64(3), "harbor", "c000", fuzzWeightBytes(1), 0.0)
	f.Fuzz(func(t *testing.T, kind string, k int64, text, terms string, wb []byte, floor float64) {
		if len(text) > 256 || len(terms) > 256 || len(wb) > 256 {
			return // keep each input small so one run stays fast
		}
		K := int(k)
		words := strings.Fields(terms)
		ws := fuzzWeights(wb)
		if kind != "dual" && kind != "ann" && kind != "content" {
			kind = "wsum" // an unknown kind must be refused
		}

		var sq ShardQueryReply
		args := ShardQueryArgs{Kind: kind, Text: text, Terms: words, Weights: ws, K: K, Tag: tag, ThetaFloor: floor, ScanID: uint64(k)}
		if err := svc.ShardQuery(args, &sq); err == nil && (len(sq.OIDs) > n || len(sq.Scores) != len(sq.OIDs)) {
			t.Fatalf("ShardQuery(%+v): %d OIDs, %d scores over %d documents", args, len(sq.OIDs), len(sq.Scores), n)
		}

		for _, dual := range []bool{false, true} {
			var tq TextQueryReply
			if err := svc.TextQuery(TextQueryArgs{Text: text, K: K, Dual: dual}, &tq); err == nil && len(tq.Hits) > n {
				t.Fatalf("TextQuery(%q, K=%d, dual=%v): %d hits over %d documents", text, K, dual, len(tq.Hits), n)
			}
		}

		var st SessionStartReply
		if err := svc.SessionStart(SessionStartArgs{Text: text}, &st); err != nil {
			t.Fatal(err)
		}
		defer svc.SessionEnd(SessionEndArgs{ID: st.ID}, nil)
		ss, err := svc.lookupSession(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range words {
			if i < len(ws) {
				ss.s.weights[w] = ws[i]
			}
		}
		var sr SessionRunReply
		if err := svc.SessionRun(SessionRunArgs{ID: st.ID, K: K}, &sr); err == nil && len(sr.Hits) > n {
			t.Fatalf("SessionRun(K=%d, weights %v): %d hits over %d documents", K, ss.s.weights, len(sr.Hits), n)
		}
	})
}
