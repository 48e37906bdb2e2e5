// Package dict implements the distributed data dictionary of Figure 1: the
// registry through which the loosely-coupled parties of a digital library
// find each other. Daemons (meta-data extractors, thesaurus servers)
// register themselves; the Mirror DBMS and clients look them up; the
// library schema is published here so every party agrees on it. The
// transport is net/rpc over TCP — the stand-in for CORBA's location-
// independent invocation.
package dict

import (
	"fmt"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"
)

// DaemonInfo describes one registered daemon.
type DaemonInfo struct {
	Name     string // unique instance name, e.g. "gabor-1"
	Kind     string // "segmenter", "feature", "cluster", "thesaurus", "dbms", "mediaserver"
	Addr     string // host:port of the daemon's RPC endpoint
	Provides []string
	Since    time.Time
}

// Dictionary is the registry state.
type Dictionary struct {
	mu      sync.RWMutex
	daemons map[string]DaemonInfo
	schema  string
	meta    map[string]string
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{daemons: map[string]DaemonInfo{}, meta: map[string]string{}}
}

// Service is the RPC surface of the dictionary.
type Service struct{ d *Dictionary }

// RegisterArgs names the RPC argument types (net/rpc needs exported
// concrete types).
type (
	RegisterArgs   struct{ Info DaemonInfo }
	ListArgs       struct{ Kind string } // "" lists everything
	SetSchemaArgs  struct{ Source string }
	SetMetaArgs    struct{ Key, Value string }
	GetMetaArgs    struct{ Key string }
	DeregisterArgs struct{ Name string }
	Empty          struct{}
)

// Register adds or replaces a daemon registration.
func (s *Service) Register(args RegisterArgs, ack *bool) error {
	if args.Info.Name == "" || args.Info.Addr == "" {
		return fmt.Errorf("dict: registration needs name and addr")
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	info := args.Info
	if info.Since.IsZero() {
		info.Since = time.Now()
	}
	s.d.daemons[info.Name] = info
	*ack = true
	return nil
}

// Deregister removes a daemon.
func (s *Service) Deregister(args DeregisterArgs, ack *bool) error {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	delete(s.d.daemons, args.Name)
	*ack = true
	return nil
}

// List returns registered daemons of a kind (or all), sorted by name.
func (s *Service) List(args ListArgs, out *[]DaemonInfo) error {
	s.d.mu.RLock()
	defer s.d.mu.RUnlock()
	for _, d := range s.d.daemons {
		if args.Kind == "" || d.Kind == args.Kind {
			*out = append(*out, d)
		}
	}
	sort.Slice(*out, func(i, j int) bool { return (*out)[i].Name < (*out)[j].Name })
	return nil
}

// SetSchema publishes the library schema (Moa DDL text).
func (s *Service) SetSchema(args SetSchemaArgs, ack *bool) error {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	s.d.schema = args.Source
	*ack = true
	return nil
}

// GetSchema retrieves the published schema.
func (s *Service) GetSchema(_ Empty, out *string) error {
	s.d.mu.RLock()
	defer s.d.mu.RUnlock()
	*out = s.d.schema
	return nil
}

// SetMeta stores an arbitrary metadata entry (e.g. collection progress).
func (s *Service) SetMeta(args SetMetaArgs, ack *bool) error {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	s.d.meta[args.Key] = args.Value
	*ack = true
	return nil
}

// GetMeta fetches a metadata entry ("" when absent).
func (s *Service) GetMeta(args GetMetaArgs, out *string) error {
	s.d.mu.RLock()
	defer s.d.mu.RUnlock()
	*out = s.d.meta[args.Key]
	return nil
}

// ServeConns accepts connections on l and serves each on its own
// goroutine — the accept loop of every RPC server in the system (the
// dictionary, the daemons, the Mirror service). The returned stop closes
// l, runs drain (when non-nil) while the established connections still
// answer, then closes them: a stopped server must look down to its
// peers, not keep serving those that connected before the stop.
func ServeConns(l net.Listener, serve func(net.Conn), drain func()) (stop func()) {
	var mu sync.Mutex
	conns := map[net.Conn]struct{}{}
	stopped := false
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if stopped {
				mu.Unlock()
				conn.Close()
				return
			}
			conns[conn] = struct{}{}
			mu.Unlock()
			go func() {
				serve(conn)
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
		}
	}()
	return func() {
		l.Close()
		if drain != nil {
			drain()
		}
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		for conn := range conns {
			conn.Close()
		}
	}
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port), serves a
// fresh dictionary, and returns its client address and a stop function.
func Start(addr string) (string, func(), error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("dict: listen %s: %w", addr, err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Dict", &Service{d: New()}); err != nil {
		panic(err) // impossible: Service satisfies the rpc contract
	}
	return l.Addr().String(), ServeConns(l, func(c net.Conn) { srv.ServeConn(c) }, nil), nil
}

// Client is a typed client for the dictionary service.
type Client struct{ c *rpc.Client }

// Dial connects to a dictionary.
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dict: dial %s: %w", addr, err)
	}
	return &Client{c: c}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.c.Close() }

// Register registers a daemon.
func (c *Client) Register(info DaemonInfo) error {
	var ack bool
	return c.c.Call("Dict.Register", RegisterArgs{Info: info}, &ack)
}

// Deregister removes a daemon.
func (c *Client) Deregister(name string) error {
	var ack bool
	return c.c.Call("Dict.Deregister", DeregisterArgs{Name: name}, &ack)
}

// List fetches registrations of a kind ("" for all).
func (c *Client) List(kind string) ([]DaemonInfo, error) {
	var out []DaemonInfo
	err := c.c.Call("Dict.List", ListArgs{Kind: kind}, &out)
	return out, err
}

// SetSchema publishes the schema.
func (c *Client) SetSchema(src string) error {
	var ack bool
	return c.c.Call("Dict.SetSchema", SetSchemaArgs{Source: src}, &ack)
}

// GetSchema fetches the schema.
func (c *Client) GetSchema() (string, error) {
	var out string
	err := c.c.Call("Dict.GetSchema", Empty{}, &out)
	return out, err
}

// SetMeta stores a metadata entry.
func (c *Client) SetMeta(key, value string) error {
	var ack bool
	return c.c.Call("Dict.SetMeta", SetMetaArgs{Key: key, Value: value}, &ack)
}

// GetMeta fetches a metadata entry.
func (c *Client) GetMeta(key string) (string, error) {
	var out string
	err := c.c.Call("Dict.GetMeta", GetMetaArgs{Key: key}, &out)
	return out, err
}
