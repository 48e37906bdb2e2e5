package core

import (
	"encoding/binary"
	"fmt"
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

// FuzzServiceArgs feeds hostile but well-formed RPC arguments — any
// statement number, K, text, terms and weights (length mismatches, NaN,
// ±Inf, ≤ 0, duplicate concepts, up to 10 000 padded ones), any session
// round and judged OIDs, and any Moa source — into the service calls a
// remote client or router reaches: ShardQuery on a shard member, the
// ranked Run (each statement, unweighted and weighted), the stateless
// session calls and MoaQuery. Each call must return an error or at most N
// rows, and never panic; a Run of an unknown statement, of weights on a
// statement other than dual, or of an invalid weighted concept set must
// return an error.
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

	const rank = `map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](ImageLibraryInternal));`
	long := rank[:len(rank)-1] + strings.Repeat(" ", maxCachedSrcFuzz) + ";" // past the plan cache's source cap
	ann, content, dual := uint8(StmtAnnotation), uint8(StmtContent), uint8(StmtDual)
	f.Add(dual, int64(10), "harbor gull", "c000 c001", fuzzWeightBytes(0.5, 2), 0.0, int64(0), uint64(0), uint64(1), uint16(0), rank)
	f.Add(dual, int64(1<<40), "harbor", "c000", fuzzWeightBytes(1), math.Inf(-1), int64(3), uint64(2), uint64(1<<62), uint16(0), long)
	f.Add(dual, int64(-3), "tide", "c000 c001 c002", fuzzWeightBytes(1), 0.3, int64(-1), uint64(0), uint64(0), uint16(0), "count(ImageLibraryInternal);")
	f.Add(dual, int64(5), "gull", "c000 c001", fuzzWeightBytes(math.NaN(), math.Inf(1)), math.NaN(), int64(1), uint64(1), uint64(2), uint16(0), "map[")
	f.Add(dual, int64(5), "", "c002", fuzzWeightBytes(-1), math.Inf(1), int64(0), uint64(3), uint64(4), uint16(0), "")
	f.Add(dual, int64(5), "harbor", "c000 c001", fuzzWeightBytes(math.Inf(-1), 1), 0.0, int64(0), uint64(3), uint64(4), uint16(0), rank)
	f.Add(dual, int64(0), "harbor", "c000 c001", fuzzWeightBytes(0, math.MaxFloat64), 0.0, int64(0), uint64(5), uint64(6), uint16(0), strings.Repeat("(", 5000))
	f.Add(dual, int64(10), "harbor", "c000 c001 c000", fuzzWeightBytes(1, 2, 3), 0.0, int64(0), uint64(1), uint64(2), uint16(0), rank)
	f.Add(dual, int64(10), "harbor gull", "c000", fuzzWeightBytes(1), 0.0, int64(2), uint64(0), uint64(math.MaxUint64), uint16(10000), rank)
	f.Add(dual, int64(1<<62), "harbor", "", []byte{}, 0.0, int64(0), uint64(0), uint64(1), uint16(0), rank)
	f.Add(ann, int64(1<<62), "harbor harbor", "", []byte{}, 0.0, int64(math.MaxInt64), uint64(7), uint64(8), uint16(0), "sum(ImageLibraryInternal);")
	f.Add(ann, int64(10), "harbor", "c000", fuzzWeightBytes(1), 0.0, int64(0), uint64(7), uint64(8), uint16(0), rank)
	f.Add(content, int64(7), "", "c000 zeppelin", fuzzWeightBytes(math.Inf(-1)), 0.0, int64(math.MinInt64), uint64(9), uint64(10), uint16(3), long+long)
	f.Add(uint8(StmtSource), int64(3), "harbor", "harbor", []byte{}, 0.0, int64(0), uint64(11), uint64(12), uint16(0), rank)
	f.Add(uint8(numStmts), int64(3), "harbor", "c000", fuzzWeightBytes(1), 0.0, int64(0), uint64(11), uint64(12), uint16(1), "map[THIS.nosuch](ImageLibraryInternal);")
	f.Add(uint8(255), int64(3), "harbor", "", []byte{}, 0.0, int64(0), uint64(11), uint64(12), uint16(0), rank)
	f.Fuzz(func(t *testing.T, stmt uint8, k int64, text, terms string, wb []byte, floor float64,
		round int64, rel, non uint64, pad uint16, src string) {
		if len(text) > 256 || len(terms) > 256 || len(wb) > 256 || len(src) > 3*maxCachedSrcFuzz {
			return // keep each input small so one run stays fast
		}
		K := int(k)
		words := strings.Fields(terms)
		concepts, ws := words, fuzzWeights(wb)
		for i := 0; i < int(min(pad, 10000)); i++ {
			concepts = append(concepts, fmt.Sprintf("p%05d", i))
			ws = append(ws, 1)
		}

		var sq ShardQueryReply
		args := ShardQueryArgs{Stmt: Stmt(stmt), Source: src, Query: words, Concepts: concepts, Weights: ws, K: K, Tag: tag, ThetaFloor: floor, ScanID: uint64(k)}
		if err := svc.ShardQuery(&args, &sq); err == nil && (len(sq.OIDs) > n || len(sq.Scores) != len(sq.OIDs)) {
			t.Fatalf("ShardQuery(%+v): %d OIDs, %d scores over %d documents", args, len(sq.OIDs), len(sq.Scores), n)
		}

		for _, q := range []Query{
			{Stmt: Stmt(stmt), Text: text, Terms: words, K: K},
			{Stmt: Stmt(stmt), Text: text, Terms: concepts, Weights: ws, K: K},
		} {
			var reply TextQueryReply
			err := svc.Run(&q, &reply)
			if err == nil && len(reply.Hits) > n {
				t.Fatalf("Run(stmt %d, K=%d, %d concepts): %d hits over %d documents", q.Stmt, K, len(q.Terms), len(reply.Hits), n)
			}
			_, badWeights := conceptWeights(q.Terms, q.Weights)
			refused := q.Stmt == StmtSource || q.Stmt >= numStmts || q.Weights != nil && (q.Stmt != StmtDual || badWeights != nil)
			if err == nil && refused {
				t.Fatalf("Run(stmt %d, %d concepts, %d weights) answered; want an error", q.Stmt, len(q.Terms), len(q.Weights))
			}
		}

		var mq MoaQueryReply
		if err := svc.MoaQuery(MoaQueryArgs{Source: src, QueryTerms: words, K: K}, &mq); err == nil && len(mq.OIDs) > n {
			t.Fatalf("MoaQuery(%q, K=%d): %d rows over %d documents", src, K, len(mq.OIDs), n)
		}

		var seeded Session
		if err := svc.SessionStart(SessionStartArgs{Text: text}, &seeded); err != nil {
			t.Fatal(err)
		}
		sess := Session{Text: text, Concepts: concepts, Weights: ws, Round: int(round)}
		for _, st := range []Session{seeded, sess} {
			var sr TextQueryReply
			q := st.Query(K)
			if err := svc.Run(&q, &sr); err == nil && len(sr.Hits) > n {
				t.Fatalf("session Run(K=%d, %d concepts): %d hits over %d documents", K, len(st.Concepts), len(sr.Hits), n)
			}
			var next Session
			fa := SessionFeedbackArgs{Session: st, Relevant: []uint64{rel}, Nonrelevant: []uint64{non}}
			if err := svc.SessionFeedback(fa, &next); err == nil {
				if _, err := conceptWeights(next.Concepts, next.Weights); err != nil || next.Round != st.Round+1 {
					t.Fatalf("SessionFeedback(%d concepts, round %d): next round %d, invalid state: %v", len(st.Concepts), st.Round, next.Round, err)
				}
			}
		}
	})
}

// maxCachedSrcFuzz is moa's plan-cache source cap (maxCachedSrc, 4 KiB):
// longer sources compile without being cached.
const maxCachedSrcFuzz = 4 << 10
