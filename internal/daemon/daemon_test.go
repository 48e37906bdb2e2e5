package daemon

import (
	"bytes"
	"math/rand"
	"testing"

	"mirror/internal/dict"
	"mirror/internal/feature"
	"mirror/internal/media"
	"mirror/internal/thesaurus"
)

func testPPM(t *testing.T, classes ...string) []byte {
	t.Helper()
	idx := make([]int, len(classes))
	for i, c := range classes {
		idx[i] = media.ClassIndex(c)
	}
	sc := media.GenerateScene(rand.New(rand.NewSource(3)), 48, 48, idx)
	var buf bytes.Buffer
	if err := sc.Img.EncodePPM(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSegmentDaemonOverRPC(t *testing.T) {
	h, err := Start("seg-test", "segmenter", "Segment", nil, NewSegmentService(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	c, err := Dial(h.Info)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Segment(testPPM(t, "sky", "night"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Tiles) < 2 || len(reply.BBoxes) != len(reply.Tiles) {
		t.Fatalf("segments = %d", len(reply.Tiles))
	}
	if _, err := c.Segment([]byte("not a ppm")); err == nil {
		t.Fatal("bad payload should error")
	}
}

func TestFeatureDaemonOverRPC(t *testing.T) {
	ex := feature.NewRGBHistogram("rgb_coarse", 2)
	h, err := Start("rgb-test", "feature", "Feature", []string{ex.Name()}, &FeatureService{Ex: ex}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	c, err := Dial(h.Info)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vec, err := c.Extract(testPPM(t, "water"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != ex.Dim() {
		t.Fatalf("vector dim = %d, want %d", len(vec), ex.Dim())
	}
	// tile-restricted extraction
	vec2, err := c.Extract(testPPM(t, "water"), [][4]int{{0, 0, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vec2) != ex.Dim() {
		t.Fatalf("tile vector dim = %d", len(vec2))
	}
}

func TestClusterDaemonOverRPC(t *testing.T) {
	h, err := Start("ac-test", "cluster", "Cluster", nil, &ClusterService{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	c, err := Dial(h.Info)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	data := make([][]float64, 60)
	for i := range data {
		base := float64(i%2) * 10
		data[i] = []float64{base + rng.NormFloat64(), base + rng.NormFloat64()}
	}
	reply, err := c.Fit(data, 1, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if reply.ChoseK != 2 {
		t.Fatalf("chose K = %d, want 2", reply.ChoseK)
	}
	if len(reply.Assign) != 60 {
		t.Fatalf("assignments = %d", len(reply.Assign))
	}
	if reply.Assign[0] == reply.Assign[1] {
		t.Fatal("adjacent items belong to different blobs")
	}
	if _, err := c.Fit(nil, 1, 2, 0); err == nil {
		t.Fatal("empty fit should error")
	}
}

func TestThesaurusDaemonOverRPC(t *testing.T) {
	h, err := Start("th-test", "thesaurus", "Thesaurus", nil, &ThesaurusService{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	c, err := Dial(h.Info)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Associate([]string{"x"}, 1); err == nil {
		t.Fatal("untrained thesaurus should error")
	}
	err = c.Train([]thesaurus.Doc{
		{Words: []string{"ocean"}, Concepts: []string{"c1"}},
		{Words: []string{"forest"}, Concepts: []string{"c2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	as, err := c.Associate([]string{"ocean"}, 1)
	if err != nil || len(as) != 1 || as[0].Concept != "c1" {
		t.Fatalf("associate = %v, %v", as, err)
	}
	if err := c.Reinforce([]string{"ocean"}, []string{"c2"}, true); err != nil {
		t.Fatal(err)
	}
}

func TestStartDemoDaemonsRegistersAll(t *testing.T) {
	dictAddr, stop, err := dict.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	handles, err := StartDemoDaemons(dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, h := range handles {
			h.Stop()
		}
	}()
	// 1 segmenter + 6 feature + 1 cluster + 1 thesaurus
	if len(handles) != 9 {
		t.Fatalf("handles = %d, want 9", len(handles))
	}
	dc, err := dict.Dial(dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	feats, err := dc.List("feature")
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 6 {
		t.Fatalf("feature daemons = %d, want 6", len(feats))
	}
	segs, _ := dc.List("segmenter")
	clus, _ := dc.List("cluster")
	ths, _ := dc.List("thesaurus")
	if len(segs) != 1 || len(clus) != 1 || len(ths) != 1 {
		t.Fatalf("daemon kinds: seg=%d cluster=%d thesaurus=%d", len(segs), len(clus), len(ths))
	}
}

// TestStopClosesEstablishedConnections: a stopped daemon stops answering
// the clients that connected before the stop, not only new ones.
func TestStopClosesEstablishedConnections(t *testing.T) {
	h, err := Start("seg-stop", "segmenter", "Segment", nil, NewSegmentService(), "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(h.Info)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ppm := testPPM(t, "sky", "night")
	if _, err := c.Segment(ppm); err != nil {
		t.Fatal(err)
	}
	h.Stop()
	if _, err := c.Segment(ppm); err == nil {
		t.Fatal("a stopped daemon still answered an established connection")
	}
}
