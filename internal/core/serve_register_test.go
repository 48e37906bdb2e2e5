package core

import (
	"net"
	"net/rpc"
	"testing"
	"time"

	"mirror/internal/dict"
)

// blockingDict is a dictionary whose Register holds until released,
// handing the test the address being registered.
type blockingDict struct {
	addr    chan string
	release chan struct{}
}

func (d *blockingDict) Register(args dict.RegisterArgs, ack *bool) error {
	d.addr <- args.Info.Addr
	<-d.release
	*ack = true
	return nil
}

// TestServeRegistersBeforeAnswering pins ServeAs's startup order: no RPC
// on the served address may be answered before the dictionary
// registration returns. A caller that sees a shard answering (load's
// WaitServing) must then find it in the dictionary (dist.Discover); the
// reverse order made "shard 0/3 primary not registered" a startup race.
func TestServeRegistersBeforeAnswering(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := &blockingDict{addr: make(chan string, 1), release: make(chan struct{})}
	dsrv := rpc.NewServer()
	if err := dsrv.RegisterName("Dict", d); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go dsrv.ServeConn(conn)
		}
	}()

	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	type served struct {
		stop func()
		err  error
	}
	done := make(chan served, 1)
	go func() {
		_, stop, err := ServeAs(m, "127.0.0.1:0", l.Addr().String(), "mirror-shard", "shard-0-of-1")
		done <- served{stop, err}
	}()
	var addr string
	select {
	case addr = <-d.addr:
	case <-time.After(10 * time.Second):
		t.Fatal("ServeAs never registered")
	}

	// Register is now blocked: the connection lands in the listen
	// backlog, and its call must wait for the registration.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := newWireClient(conn)
	defer c.Close()
	call := c.Go("Mirror.ShardState", dict.Empty{}, new(ShardStateReply), make(chan *rpc.Call, 1))
	select {
	case <-call.Done:
		t.Fatalf("an RPC was answered (err %v) before the dictionary registration returned", call.Error)
	case <-time.After(200 * time.Millisecond):
	}

	close(d.release)
	s := <-done
	if s.err != nil {
		t.Fatal(s.err)
	}
	defer s.stop()
	select {
	case <-call.Done:
		if call.Error != nil {
			t.Fatal(call.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the call was never answered after registration")
	}
}
