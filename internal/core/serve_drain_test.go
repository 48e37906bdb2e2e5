package core

import (
	"testing"
	"time"
)

// blockingRetriever wedges Run until released,
// standing in for any slow in-flight handler at shutdown time.
type blockingRetriever struct {
	Retriever
	entered chan struct{} // closed when the handler is inside the call
	release chan struct{} // handler returns when this closes
}

func (b *blockingRetriever) Run(Query) ([]Hit, EpochStamp, error) {
	close(b.entered)
	<-b.release
	return []Hit{{OID: 7, URL: "http://x/drained.ppm", Score: 0.5}}, EpochStamp{Seq: 3, Docs: 1}, nil
}

// Serve's stop function must drain in-flight RPC handlers before
// returning: a reply computed from a consistent epoch is written to the
// client even when shutdown lands mid-call. Regression test — stop used
// to close the listener and return immediately, racing the final
// checkpoint (and process exit) against handlers still holding the store.
func TestServeStopDrainsInflightHandlers(t *testing.T) {
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	b := &blockingRetriever{
		Retriever: m,
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	addr, stop, err := Serve(b, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialMirror(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type reply struct {
		r   *TextQueryReply
		err error
	}
	got := make(chan reply, 1)
	go func() {
		r, err := c.TextQueryStamped("anything", 3, false)
		got <- reply{r, err}
	}()

	select {
	case <-b.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered the retriever")
	}

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	// The handler is wedged: stop must wait for it, not return.
	select {
	case <-stopped:
		t.Fatal("stop returned while a handler was in flight")
	case <-time.After(200 * time.Millisecond):
	}

	close(b.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop never returned after the handler finished")
	}
	select {
	case rep := <-got:
		if rep.err != nil {
			t.Fatalf("in-flight query failed across shutdown: %v", rep.err)
		}
		if len(rep.r.Hits) != 1 || rep.r.Hits[0].URL != "http://x/drained.ppm" || rep.r.Epoch != 3 {
			t.Fatalf("in-flight reply = %+v", rep.r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight reply never arrived")
	}
}
