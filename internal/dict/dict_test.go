package dict

import (
	"testing"
)

func startTestDict(t *testing.T) (string, *Client) {
	t.Helper()
	addr, stop, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return addr, c
}

func TestRegisterListDeregister(t *testing.T) {
	_, c := startTestDict(t)
	if err := c.Register(DaemonInfo{Name: "gabor-1", Kind: "feature", Addr: "x:1", Provides: []string{"gabor"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(DaemonInfo{Name: "seg-1", Kind: "segmenter", Addr: "x:2"}); err != nil {
		t.Fatal(err)
	}
	all, err := c.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("all = %v", all)
	}
	feats, err := c.List("feature")
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 1 || feats[0].Name != "gabor-1" || feats[0].Provides[0] != "gabor" {
		t.Fatalf("features = %v", feats)
	}
	if err := c.Deregister("gabor-1"); err != nil {
		t.Fatal(err)
	}
	feats, _ = c.List("feature")
	if len(feats) != 0 {
		t.Fatalf("after deregister: %v", feats)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, c := startTestDict(t)
	if err := c.Register(DaemonInfo{Name: "", Addr: "x"}); err == nil {
		t.Fatal("empty name should fail")
	}
	if err := c.Register(DaemonInfo{Name: "x", Addr: ""}); err == nil {
		t.Fatal("empty addr should fail")
	}
}

func TestSchemaAndMeta(t *testing.T) {
	_, c := startTestDict(t)
	src := "define X as SET<Atomic<int>>;"
	if err := c.SetSchema(src); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetSchema()
	if err != nil || got != src {
		t.Fatalf("schema = %q, %v", got, err)
	}
	if err := c.SetMeta("progress", "42"); err != nil {
		t.Fatal(err)
	}
	v, err := c.GetMeta("progress")
	if err != nil || v != "42" {
		t.Fatalf("meta = %q, %v", v, err)
	}
	v, _ = c.GetMeta("absent")
	if v != "" {
		t.Fatalf("absent meta = %q", v)
	}
}

func TestReplaceRegistration(t *testing.T) {
	_, c := startTestDict(t)
	c.Register(DaemonInfo{Name: "d", Kind: "feature", Addr: "a:1"})
	c.Register(DaemonInfo{Name: "d", Kind: "feature", Addr: "a:2"})
	list, _ := c.List("feature")
	if len(list) != 1 || list[0].Addr != "a:2" {
		t.Fatalf("replacement failed: %v", list)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
}

// TestStopClosesEstablishedConnections: a stopped dictionary stops
// answering the clients that connected before the stop, not only new
// ones.
func TestStopClosesEstablishedConnections(t *testing.T) {
	addr, stop, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(DaemonInfo{Name: "seg-1", Kind: "segmenter", Addr: "x:2"}); err != nil {
		t.Fatal(err)
	}
	stop()
	if err := c.Register(DaemonInfo{Name: "seg-2", Kind: "segmenter", Addr: "x:3"}); err == nil {
		t.Fatal("a stopped dictionary still answered Register on an established connection")
	}
	if _, err := c.List(""); err == nil {
		t.Fatal("a stopped dictionary still answered List on an established connection")
	}
}
