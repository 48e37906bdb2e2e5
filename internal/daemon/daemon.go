// Package daemon implements the daemon framework of Figure 1. "The notion
// of a 'daemon' abstracts from the various techniques for meta data
// extraction and query formulation"; here every daemon is a net/rpc
// service (the CORBA substitute) that registers itself with the
// distributed data dictionary so the other parties can discover it.
//
// The package ships the demo prototype's daemon set: the segmenter, the
// feature extraction daemons (two colour, four texture), the AutoClass
// clustering daemon and the thesaurus daemon.
package daemon

import (
	"bytes"
	"fmt"
	"net"
	"net/rpc"

	"mirror/internal/cluster"
	"mirror/internal/dict"
	"mirror/internal/feature"
	"mirror/internal/media"
	"mirror/internal/thesaurus"
)

// Handle is a running daemon: its registration info plus a stop function.
type Handle struct {
	Info dict.DaemonInfo
	stop func()
}

// Stop terminates the daemon: its listener and every connection.
func (h *Handle) Stop() { h.stop() }

// Start serves rcvr (an rpc service value) under serviceName on an
// ephemeral localhost port and registers it with the dictionary at
// dictAddr (skipped when dictAddr is empty, for in-process tests).
func Start(name, kind, serviceName string, provides []string, rcvr any, dictAddr string) (*Handle, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon %s: listen: %w", name, err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(serviceName, rcvr); err != nil {
		l.Close()
		return nil, fmt.Errorf("daemon %s: register: %w", name, err)
	}
	stop := dict.ServeConns(l, func(c net.Conn) { srv.ServeConn(c) }, nil)
	info := dict.DaemonInfo{Name: name, Kind: kind, Addr: l.Addr().String(), Provides: provides}
	if dictAddr != "" {
		dc, err := dict.Dial(dictAddr)
		if err != nil {
			stop()
			return nil, err
		}
		defer dc.Close()
		if err := dc.Register(info); err != nil {
			stop()
			return nil, fmt.Errorf("daemon %s: dictionary registration: %w", name, err)
		}
	}
	return &Handle{Info: info, stop: stop}, nil
}

// ---- segmenter daemon ----

// SegmentArgs carries one image as PPM bytes.
type SegmentArgs struct{ PPM []byte }

// SegmentReply returns the segments as tile lists plus bounding boxes.
type SegmentReply struct {
	Tiles  [][][4]int
	BBoxes [][4]int
}

// SegmentService is the segmentation daemon.
type SegmentService struct{ Seg *feature.Segmenter }

// NewSegmentService returns the demo segmenter daemon.
func NewSegmentService() *SegmentService {
	return &SegmentService{Seg: feature.NewSegmenter()}
}

// Segment implements the RPC method.
func (s *SegmentService) Segment(args SegmentArgs, reply *SegmentReply) error {
	img, err := media.DecodePPM(bytes.NewReader(args.PPM))
	if err != nil {
		return err
	}
	for _, seg := range s.Seg.Segment(img) {
		reply.Tiles = append(reply.Tiles, seg.Tiles)
		reply.BBoxes = append(reply.BBoxes, seg.BBox)
	}
	return nil
}

// ---- feature daemons ----

// ExtractArgs carries an image plus the tile set of one segment.
type ExtractArgs struct {
	PPM   []byte
	Tiles [][4]int // empty: whole image
}

// ExtractReply returns the feature vector.
type ExtractReply struct{ Vector []float64 }

// FeatureService wraps one extractor as a daemon.
type FeatureService struct{ Ex feature.Extractor }

// Extract implements the RPC method.
func (s *FeatureService) Extract(args ExtractArgs, reply *ExtractReply) error {
	img, err := media.DecodePPM(bytes.NewReader(args.PPM))
	if err != nil {
		return err
	}
	if len(args.Tiles) == 0 {
		reply.Vector = s.Ex.Extract(img)
		return nil
	}
	seg := &feature.Segment{Tiles: args.Tiles}
	reply.Vector = seg.ExtractAveraged(img, s.Ex)
	return nil
}

// ---- clustering daemon (AutoClass) ----

// FitArgs carries a feature matrix and the class search range.
type FitArgs struct {
	Data       [][]float64
	KMin, KMax int
	Seed       int64
}

// FitReply returns the selected model and the assignment of each input row.
type FitReply struct {
	Model   cluster.Model
	Assign  []int
	ChoseK  int
	DataBIC float64
}

// ClusterService is the AutoClass daemon.
type ClusterService struct{}

// Fit implements the RPC method: standardise, model-select, assign.
func (*ClusterService) Fit(args FitArgs, reply *FitReply) error {
	if len(args.Data) == 0 {
		return fmt.Errorf("daemon: cluster fit on empty data")
	}
	std, _, _ := cluster.Standardize(args.Data)
	m, err := cluster.Select(std, args.KMin, args.KMax, args.Seed)
	if err != nil {
		return err
	}
	reply.Model = *m
	reply.ChoseK = m.K
	reply.DataBIC = m.BIC
	reply.Assign = m.AssignAll(std)
	return nil
}

// ---- thesaurus daemon ----

// ThesaurusService holds a built association thesaurus and serves query
// formulation ("thesaurus daemons are interactively used during query
// formulation").
type ThesaurusService struct{ th *thesaurus.Thesaurus }

// TrainArgs carries the co-occurrence training data.
type TrainArgs struct{ Docs []thesaurus.Doc }

// AssociateArgs asks for the concepts associated with query words.
type AssociateArgs struct {
	Words []string
	K     int
}

// AssociateReply returns ranked associations.
type AssociateReply struct{ Associations []thesaurus.Association }

// ReinforceArgs carries one feedback observation.
type ReinforceArgs struct {
	Words    []string
	Concepts []string
	Relevant bool
}

// Train (re)builds the thesaurus.
func (s *ThesaurusService) Train(args TrainArgs, ack *bool) error {
	s.th = thesaurus.Build(args.Docs)
	*ack = true
	return nil
}

// Associate ranks concepts for query words.
func (s *ThesaurusService) Associate(args AssociateArgs, reply *AssociateReply) error {
	if s.th == nil {
		return fmt.Errorf("daemon: thesaurus not trained")
	}
	reply.Associations = s.th.Associate(args.Words, args.K)
	return nil
}

// Reinforce applies relevance feedback to the thesaurus.
func (s *ThesaurusService) Reinforce(args ReinforceArgs, ack *bool) error {
	if s.th == nil {
		return fmt.Errorf("daemon: thesaurus not trained")
	}
	s.th.Reinforce(args.Words, args.Concepts, args.Relevant)
	*ack = true
	return nil
}

// ---- typed clients ----

// Client wraps an rpc connection to one daemon.
type Client struct {
	c       *rpc.Client
	service string
}

// Dial connects to a daemon given its registration.
func Dial(info dict.DaemonInfo) (*Client, error) {
	c, err := rpc.Dial("tcp", info.Addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: dial %s (%s): %w", info.Name, info.Addr, err)
	}
	service := serviceNameFor(info.Kind)
	return &Client{c: c, service: service}, nil
}

// serviceNameFor maps a daemon kind to its rpc service name.
func serviceNameFor(kind string) string {
	switch kind {
	case "segmenter":
		return "Segment"
	case "feature":
		return "Feature"
	case "cluster":
		return "Cluster"
	case "thesaurus":
		return "Thesaurus"
	}
	return kind
}

// Close releases the connection.
func (c *Client) Close() error { return c.c.Close() }

// Segment calls a segmenter daemon.
func (c *Client) Segment(ppm []byte) (*SegmentReply, error) {
	var reply SegmentReply
	err := c.c.Call(c.service+".Segment", SegmentArgs{PPM: ppm}, &reply)
	return &reply, err
}

// Extract calls a feature daemon.
func (c *Client) Extract(ppm []byte, tiles [][4]int) ([]float64, error) {
	var reply ExtractReply
	err := c.c.Call(c.service+".Extract", ExtractArgs{PPM: ppm, Tiles: tiles}, &reply)
	return reply.Vector, err
}

// Fit calls the clustering daemon.
func (c *Client) Fit(data [][]float64, kmin, kmax int, seed int64) (*FitReply, error) {
	var reply FitReply
	err := c.c.Call(c.service+".Fit", FitArgs{Data: data, KMin: kmin, KMax: kmax, Seed: seed}, &reply)
	return &reply, err
}

// Train trains the thesaurus daemon.
func (c *Client) Train(docs []thesaurus.Doc) error {
	var ack bool
	return c.c.Call(c.service+".Train", TrainArgs{Docs: docs}, &ack)
}

// Associate queries the thesaurus daemon.
func (c *Client) Associate(words []string, k int) ([]thesaurus.Association, error) {
	var reply AssociateReply
	err := c.c.Call(c.service+".Associate", AssociateArgs{Words: words, K: k}, &reply)
	return reply.Associations, err
}

// Reinforce sends feedback to the thesaurus daemon.
func (c *Client) Reinforce(words, concepts []string, relevant bool) error {
	var ack bool
	return c.c.Call(c.service+".Reinforce", ReinforceArgs{Words: words, Concepts: concepts, Relevant: relevant}, &ack)
}

// StartDemoDaemons launches the full prototype daemon set of Section 5.1
// (one segmenter, two colour daemons, four texture daemons, AutoClass, one
// thesaurus), registering each with the dictionary. It returns handles in
// start order.
func StartDemoDaemons(dictAddr string) ([]*Handle, error) {
	var handles []*Handle
	fail := func(err error) ([]*Handle, error) {
		for _, h := range handles {
			h.Stop()
		}
		return nil, err
	}
	h, err := Start("segmenter-1", "segmenter", "Segment", nil, NewSegmentService(), dictAddr)
	if err != nil {
		return fail(err)
	}
	handles = append(handles, h)
	for _, ex := range feature.All() {
		h, err := Start(ex.Name()+"-1", "feature", "Feature", []string{ex.Name()}, &FeatureService{Ex: ex}, dictAddr)
		if err != nil {
			return fail(err)
		}
		handles = append(handles, h)
	}
	h, err = Start("autoclass-1", "cluster", "Cluster", nil, &ClusterService{}, dictAddr)
	if err != nil {
		return fail(err)
	}
	handles = append(handles, h)
	h, err = Start("thesaurus-1", "thesaurus", "Thesaurus", nil, &ThesaurusService{}, dictAddr)
	if err != nil {
		return fail(err)
	}
	handles = append(handles, h)
	return handles, nil
}
