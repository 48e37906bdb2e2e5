package core

// The Mirror service's wire: net/rpc's service model (registration,
// reflect dispatch, a goroutine per request) over one framed codec instead
// of gob. Each message is one frame, built in a per-connection buffer and
// sent with one Write:
//
//	u64 length   bytes after this field, little-endian
//	u64 seq      net/rpc sequence number, little-endian
//	string       method name (request) or error text (response)
//	u8 kind      body layout: none, gob, or one fixed layout
//	body
//
// The query calls — Run, MoaQuery, ShardQuery, RaiseTheta and the
// dict.Empty argument/reply — have hand-written fixed layouts: strings
// are uvarint-length-prefixed, ints zig-zag varints, floats their IEEE
// bits, and a string list travels as its lengths followed by one slab,
// decoded as substrings of a single string (appendOpt: behind a presence
// byte where nil-ness means something). Every other body is gob inside
// the frame, through one persistent gob Encoder/Decoder pair per
// connection. Error responses carry no body.
//
// A client opens the connection with wireHello (magic + version); the
// server puts the same five bytes ahead of its first response. A gob
// net/rpc client gets an rpc.ServerError naming the wire version, and a
// client facing a gob server fails its first call with a handshake error.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"reflect"
	"slices"

	"mirror/internal/dict"
)

// wireVersion is the frame format's version; peers must match exactly.
// v2: a "dual" ShardQuery leg may carry a session's concept weights,
// which a v1 shard would silently ignore. v3: the session calls carry
// the session's state instead of a server-side ID; gob matches fields by
// name, so a v2 client's {ID, K} would decode as an empty session. v4:
// TextQuery and SessionRun fold into Run, and a ShardQuery leg carries a
// statement number and analysed terms instead of a kind string and text.
const wireVersion = 4

// wireMagic opens a framed connection. No gob stream starts with its
// first byte (a gob length byte in 0x80–0xf7 is out of range), so a gob
// server fails on it at once instead of waiting for more input.
var wireMagic = [4]byte{0xe5, 'M', 'W', 'R'}

// wireHello is the handshake both peers send first: magic, then version.
var wireHello = append(wireMagic[:], wireVersion)

// maxFrame is the largest frame either side accepts: gob's own message
// cap (1 GiB on 32-bit hosts, 8 GiB on 64-bit), so a ShardSync genesis
// stream gob carried still fits in one frame.
const maxFrame = (1 << 30) << (^uint(0) >> 62)

// keepFrameBytes bounds the frame buffers a connection keeps between
// messages; a larger one (a resync stream) is dropped after use.
const keepFrameBytes = 1 << 20

// Body kinds.
const (
	bodyNone byte = iota
	bodyGob
	bodyEmpty
	bodyQuery
	bodyTextQueryReply
	bodyMoaQueryArgs
	bodyMoaQueryReply
	bodyShardQueryArgs
	bodyShardQueryReply
	bodyRaiseThetaArgs
)

// errGobClient is what a gob net/rpc client hears from a framed server.
var errGobClient = fmt.Sprintf("core: this Mirror server speaks wire v%d and refuses gob net/rpc clients: upgrade the client together with its servers", wireVersion)

// appendBuf is an io.Writer appending to a byte slice: the gob encoder's
// sink, so a gob body lands inside the frame being built.
type appendBuf []byte

func (b *appendBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// wireConn is one end of a framed connection, shared by the server and
// client codecs. net/rpc reads on one goroutine and writes under its own
// send lock, so the read half and the write half each have one user at a
// time.
type wireConn struct {
	rwc io.ReadWriteCloser

	// read half
	r       *bufio.Reader
	in      []byte // frame being decoded (reused)
	kind    byte   // body kind of the frame just read
	body    []byte // its body, a slice of in
	gobIn   bytes.Reader
	dec     *gob.Decoder
	readErr error // sticky: a failed gob body leaves the gob stream unusable

	// write half
	hello []byte    // sent ahead of the first frame, then nil
	out   appendBuf // frame being built (reused)
	enc   *gob.Encoder
}

func newWireConn(rwc io.ReadWriteCloser) wireConn {
	return wireConn{rwc: rwc, r: bufio.NewReader(rwc), hello: wireHello}
}

func (c *wireConn) Close() error { return c.rwc.Close() }

// readFrame reads the next frame and returns its sequence number and its
// string field (a slice of the frame buffer, valid until the next read),
// keeping the body for readBody.
func (c *wireConn) readFrame() (seq uint64, s []byte, err error) {
	if c.readErr != nil {
		return 0, nil, c.readErr
	}
	var hdr [8]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("core: wire: %d-byte frame exceeds the %d-byte cap", n, uint64(maxFrame))
	}
	if cap(c.in) > keepFrameBytes {
		c.in = nil
	}
	// Grow as bytes arrive: a lying length prefix costs memory in
	// proportion to what the peer actually sent.
	buf := c.in[:0]
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(max(len(buf), 512)))))
		}
		k, err := io.ReadFull(c.r, buf[len(buf):int(min(uint64(cap(buf)), n))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return 0, nil, io.ErrUnexpectedEOF
		}
	}
	c.in = buf
	r := wireReader{b: buf}
	seq = r.u64()
	s = r.bytes()
	c.kind = r.byte()
	c.body = r.b
	return seq, s, r.err
}

// readBody decodes the body of the frame just read into dst; a nil dst
// discards it (a gob body still passes through the stateful decoder).
func (c *wireConn) readBody(dst any) error {
	kind, body := c.kind, c.body
	c.kind, c.body = bodyNone, nil
	switch {
	case kind == bodyGob:
		return c.readGob(body, dst)
	case dst == nil:
		return nil
	case kind == bodyNone:
		return errors.New("core: wire: the frame carries no body")
	}
	r := wireReader{b: body}
	switch v := dst.(type) {
	case *dict.Empty:
		if kind == bodyEmpty {
			return r.end()
		}
	case wireDecoder:
		if kind == v.wireKind() {
			v.readWire(&r)
			return r.end()
		}
	}
	return fmt.Errorf("core: wire: body kind %d does not decode into %T", kind, dst)
}

func (c *wireConn) readGob(body []byte, dst any) error {
	if c.dec == nil {
		c.dec = gob.NewDecoder(&c.gobIn)
	}
	c.gobIn.Reset(body)
	err := c.dec.Decode(dst)
	if err == nil && c.gobIn.Len() > 0 {
		err = fmt.Errorf("%d trailing bytes", c.gobIn.Len())
	}
	if err != nil {
		c.readErr = fmt.Errorf("core: wire: gob body: %w", err)
		return c.readErr
	}
	return nil
}

// writeFrame builds one frame and sends it with one Write. A gob body that
// fails to encode may have advanced the gob stream's state, so the
// connection is closed rather than left out of step with its peer.
func (c *wireConn) writeFrame(seq uint64, s string, body any) error {
	b := append(c.out[:0], c.hello...)
	c.hello = nil
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, 0) // length, patched below
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = appendStr(b, s)
	switch v := body.(type) {
	case nil:
		b = append(b, bodyNone)
	case dict.Empty, *dict.Empty:
		b = append(b, bodyEmpty)
	case wireEncoder:
		b = v.appendWire(append(b, v.wireKind()))
	default:
		c.out = append(b, bodyGob)
		if c.enc == nil {
			c.enc = gob.NewEncoder(&c.out)
		}
		if err := c.enc.Encode(body); err != nil {
			c.rwc.Close()
			return fmt.Errorf("core: wire: gob body: %w", err)
		}
		b = c.out
	}
	n := uint64(len(b) - start - 8)
	if n > maxFrame {
		c.rwc.Close()
		return fmt.Errorf("core: wire: %d-byte frame exceeds the %d-byte cap", n, uint64(maxFrame))
	}
	binary.LittleEndian.PutUint64(b[start:], n)
	c.out = b
	if cap(c.out) > keepFrameBytes {
		c.out = nil
	}
	_, err := c.rwc.Write(b)
	return err
}

// wireServerCodec is the server half of the framed codec.
type wireServerCodec struct {
	wireConn
	shook  bool
	method string // last method name, reused while it repeats
}

func newWireServerCodec(rwc io.ReadWriteCloser) *wireServerCodec {
	return &wireServerCodec{wireConn: newWireConn(rwc)}
}

func (c *wireServerCodec) ReadRequestHeader(r *rpc.Request) error {
	if !c.shook {
		if err := c.handshake(); err != nil {
			return err
		}
		c.shook = true
	}
	seq, name, err := c.readFrame()
	if err != nil {
		return err
	}
	if string(name) != c.method {
		c.method = string(name)
	}
	r.Seq, r.ServiceMethod = seq, c.method
	return nil
}

func (c *wireServerCodec) ReadRequestBody(body any) error { return c.readBody(body) }

func (c *wireServerCodec) WriteResponse(r *rpc.Response, body any) error {
	if r.Error != "" {
		body = nil
	}
	return c.writeFrame(r.Seq, r.Error, body)
}

// handshake checks the client's hello. A framed client of another version
// is sent this server's hello and dropped; a gob client is refused with an
// rpc.ServerError. Either way the connection ends with io.EOF, which
// net/rpc takes as a quiet hang-up.
func (c *wireServerCodec) handshake() error {
	p, err := c.r.Peek(len(wireHello))
	if err != nil {
		return io.EOF
	}
	if [4]byte(p[:4]) == wireMagic {
		if p[4] == wireVersion {
			_, err := c.r.Discard(len(wireHello))
			return err
		}
		c.rwc.Write(wireHello)
		return io.EOF
	}
	c.refuseGob()
	return io.EOF
}

// refuseGob answers a gob net/rpc client's first call with errGobClient.
// It reads that whole call first, header and body, so hanging up does not
// reset the connection under the unread request.
func (c *wireServerCodec) refuseGob() {
	dec := gob.NewDecoder(c.r)
	var req rpc.Request
	if dec.Decode(&req) != nil || dec.DecodeValue(reflect.Value{}) != nil { // the zero Value discards
		return
	}
	w := bufio.NewWriter(c.rwc)
	enc := gob.NewEncoder(w)
	resp := rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq, Error: errGobClient}
	if enc.Encode(&resp) == nil && enc.Encode(struct{}{}) == nil {
		w.Flush()
	}
}

// wireClientCodec is the client half of the framed codec.
type wireClientCodec struct {
	wireConn
	peer  string // named in handshake errors
	shook bool
}

func newWireClientCodec(rwc io.ReadWriteCloser, peer string) *wireClientCodec {
	return &wireClientCodec{wireConn: newWireConn(rwc), peer: peer}
}

// newWireClient speaks the framed codec over an established connection.
func newWireClient(conn net.Conn) *rpc.Client {
	return rpc.NewClientWithCodec(newWireClientCodec(conn, conn.RemoteAddr().String()))
}

func (c *wireClientCodec) WriteRequest(r *rpc.Request, body any) error {
	return c.writeFrame(r.Seq, r.ServiceMethod, body)
}

func (c *wireClientCodec) ReadResponseHeader(r *rpc.Response) error {
	if !c.shook {
		if err := c.handshake(); err != nil {
			return err
		}
		c.shook = true
	}
	seq, msg, err := c.readFrame()
	if err != nil {
		return err
	}
	r.Seq, r.Error = seq, string(msg)
	return nil
}

func (c *wireClientCodec) ReadResponseBody(body any) error { return c.readBody(body) }

// handshake reads the server's hello ahead of its first response. A gob
// server sends none: it fails on the magic and hangs up.
func (c *wireClientCodec) handshake() error {
	var p [5]byte
	if _, err := io.ReadFull(c.r, p[:]); err != nil {
		return fmt.Errorf("core: %s did not answer the Mirror wire v%d handshake (a server older than wire v%d speaks gob; upgrade servers and clients together): %v",
			c.peer, wireVersion, wireVersion, err)
	}
	if [4]byte(p[:4]) != wireMagic {
		return fmt.Errorf("core: %s is not a Mirror server (wire magic %x)", c.peer, p[:4])
	}
	if p[4] != wireVersion {
		return fmt.Errorf("core: %s speaks Mirror wire v%d, this client v%d: upgrade servers and clients together", c.peer, p[4], wireVersion)
	}
	return nil
}

// ---- fixed layouts ----

// wireEncoder is a body with a fixed layout: appendWire appends its
// fields. The methods take values, so args passed by value and replies
// passed by pointer both qualify.
type wireEncoder interface {
	wireKind() byte
	appendWire(b []byte) []byte
}

// wireDecoder reads a fixed layout's fields back into the value.
type wireDecoder interface {
	wireKind() byte
	readWire(r *wireReader)
}

func (Query) wireKind() byte { return bodyQuery }

func (a Query) appendWire(b []byte) []byte {
	b = append(b, byte(a.Stmt))
	b = appendStr(b, a.Text)
	b = appendOpt(b, a.Terms, appendStrs)
	b = appendOpt(b, a.Weights, appendF64s)
	return binary.AppendVarint(b, int64(a.K))
}

func (a *Query) readWire(r *wireReader) {
	a.Stmt, a.Text = Stmt(r.byte()), r.str()
	a.Terms, a.Weights, a.K = readOpt(r, (*wireReader).strs), readOpt(r, (*wireReader).f64s), r.int()
}

func (TextQueryReply) wireKind() byte { return bodyTextQueryReply }

// A hit list travels column-wise: OIDs, scores, then the URLs as a slab.
func (a TextQueryReply) appendWire(b []byte) []byte {
	b = binary.AppendVarint(b, a.Epoch)
	b = binary.AppendVarint(b, int64(a.EpochDocs))
	b = binary.AppendUvarint(b, uint64(len(a.Hits)))
	for _, h := range a.Hits {
		b = binary.AppendUvarint(b, h.OID)
	}
	for _, h := range a.Hits {
		b = appendF64(b, h.Score)
	}
	return appendSlab(b, len(a.Hits), func(i int) string { return a.Hits[i].URL })
}

func (a *TextQueryReply) readWire(r *wireReader) {
	a.Epoch, a.EpochDocs, a.Hits = r.varint(), r.int(), nil
	n := r.count(1 + 8 + 1) // OID, score, URL length
	if n == 0 {
		return
	}
	a.Hits = make([]WireHit, n)
	for i := range a.Hits {
		a.Hits[i].OID = r.uvarint()
	}
	for i := range a.Hits {
		a.Hits[i].Score = r.f64()
	}
	r.slab(n, func(i int, s string) { a.Hits[i].URL = s })
}

func (MoaQueryArgs) wireKind() byte { return bodyMoaQueryArgs }

func (a MoaQueryArgs) appendWire(b []byte) []byte {
	b = appendStr(b, a.Source)
	b = appendStrs(b, a.QueryTerms)
	return binary.AppendVarint(b, int64(a.K))
}

func (a *MoaQueryArgs) readWire(r *wireReader) {
	a.Source, a.QueryTerms, a.K = r.str(), r.strs(), r.int()
}

func (MoaQueryReply) wireKind() byte { return bodyMoaQueryReply }

func (a MoaQueryReply) appendWire(b []byte) []byte {
	b = appendStr(b, a.Scalar)
	b = appendU64s(b, a.OIDs)
	b = appendStrs(b, a.Values)
	b = binary.AppendVarint(b, a.Epoch)
	return binary.AppendVarint(b, int64(a.EpochDocs))
}

func (a *MoaQueryReply) readWire(r *wireReader) {
	a.Scalar, a.OIDs, a.Values = r.str(), r.u64s(), r.strs()
	a.Epoch, a.EpochDocs = r.varint(), r.int()
}

func (ShardQueryArgs) wireKind() byte { return bodyShardQueryArgs }

func (a ShardQueryArgs) appendWire(b []byte) []byte {
	b = append(b, byte(a.Stmt))
	b = appendStr(b, a.Source)
	b = appendOpt(b, a.Query, appendStrs)
	b = appendOpt(b, a.Concepts, appendStrs)
	b = appendOpt(b, a.Weights, appendF64s)
	b = binary.AppendVarint(b, int64(a.K))
	b = binary.AppendUvarint(b, a.Tag)
	b = appendF64(b, a.ThetaFloor)
	return binary.AppendUvarint(b, a.ScanID)
}

func (a *ShardQueryArgs) readWire(r *wireReader) {
	a.Stmt, a.Source = Stmt(r.byte()), r.str()
	a.Query, a.Concepts, a.Weights = readOpt(r, (*wireReader).strs), readOpt(r, (*wireReader).strs), readOpt(r, (*wireReader).f64s)
	a.K, a.Tag, a.ThetaFloor, a.ScanID = r.int(), r.uvarint(), r.f64(), r.uvarint()
}

func (ShardQueryReply) wireKind() byte { return bodyShardQueryReply }

func (a ShardQueryReply) appendWire(b []byte) []byte {
	b = appendU64s(b, a.OIDs)
	b = appendF64s(b, a.Scores)
	b = appendStrs(b, a.Values)
	b = binary.AppendUvarint(b, uint64(len(a.Floats)))
	for _, f := range a.Floats {
		b = appendBool(b, f)
	}
	return appendF64(b, a.Theta)
}

func (a *ShardQueryReply) readWire(r *wireReader) {
	a.OIDs, a.Scores, a.Values, a.Floats = r.u64s(), r.f64s(), r.strs(), nil
	if n := r.count(1); n > 0 {
		a.Floats = make([]bool, n)
		for i := range a.Floats {
			a.Floats[i] = r.bool()
		}
	}
	a.Theta = r.f64()
}

func (RaiseThetaArgs) wireKind() byte { return bodyRaiseThetaArgs }

func (a RaiseThetaArgs) appendWire(b []byte) []byte {
	return appendF64(binary.AppendUvarint(b, a.ScanID), a.Theta)
}

func (a *RaiseThetaArgs) readWire(r *wireReader) {
	a.ScanID, a.Theta = r.uvarint(), r.f64()
}

// ---- primitives ----

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendU64s(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func appendF64s(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	return appendSlab(b, len(ss), func(i int) string { return ss[i] })
}

// appendOpt writes a presence byte, then the list when it is non-nil.
func appendOpt[T any](b []byte, vs []T, app func([]byte, []T) []byte) []byte {
	if vs == nil {
		return appendBool(b, false)
	}
	return app(appendBool(b, true), vs)
}

// appendSlab writes n string lengths, then the strings' bytes back to back.
func appendSlab(b []byte, n int, at func(int) string) []byte {
	for i := 0; i < n; i++ {
		b = binary.AppendUvarint(b, uint64(len(at(i))))
	}
	for i := 0; i < n; i++ {
		b = append(b, at(i)...)
	}
	return b
}

// wireReader decodes a fixed layout. The first malformed field sets err
// and empties the input, so every later read returns a zero value; every
// count is checked against the bytes left before anything is allocated.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errors.New("core: wire: truncated or malformed frame")
	}
	r.b = nil
}

// end reports the first error, or bytes left over after the last field.
func (r *wireReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("core: wire: %d trailing bytes after the body", len(r.b))
	}
	return r.err
}

func (r *wireReader) byte() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail()
	return false
}

func (r *wireReader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

// count reads an element count and checks it against the bytes left, at
// least size bytes per element.
func (r *wireReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail()
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string as a slice of the input.
func (r *wireReader) bytes() []byte {
	n := r.count(1)
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *wireReader) str() string { return string(r.bytes()) }

// strs reads a string list; an empty one decodes as nil, as under gob.
func (r *wireReader) strs() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	r.slab(n, func(i int, s string) { ss[i] = s })
	return ss
}

// slab reads n string lengths and then their bytes, copied once into a
// single string that set receives substrings of.
func (r *wireReader) slab(n int, set func(int, string)) {
	lens := r.b
	total := 0
	for i := 0; i < n && r.err == nil; i++ {
		l := r.uvarint()
		if l > uint64(len(r.b)) || total+int(l) > len(r.b) {
			r.fail()
		}
		total += int(l)
	}
	if r.err == nil && total > len(r.b) {
		r.fail()
	}
	if r.err != nil {
		return
	}
	s := string(r.b[:total])
	r.b = r.b[total:]
	for i, off := 0, 0; i < n; i++ {
		l, k := binary.Uvarint(lens)
		lens = lens[k:]
		set(i, s[off:off+int(l)])
		off += int(l)
	}
}

// readOpt reads a list behind a presence byte: nil when absent, non-nil
// (if empty) when present.
func readOpt[T any](r *wireReader, read func(*wireReader) []T) []T {
	if !r.bool() {
		return nil
	}
	if vs := read(r); vs != nil || r.err != nil {
		return vs
	}
	return []T{}
}

func (r *wireReader) u64s() []uint64 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.uvarint()
	}
	return vs
}

func (r *wireReader) f64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.f64()
	}
	return vs
}
