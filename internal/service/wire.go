package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// The lockserve wire protocol has one frame layout:
//
//	header   byte 0      version: WireVersion2, or WireVersion3 = "an ID follows"
//	         byte 1      op code
//	         bytes 2..3  big-endian payload length (≤ MaxPayload)
//	payload  [u64 request ID]           only when the version byte is 3
//	         per-op body:
//	           OpAcquire  str resource, str owner, u32 ttl ms, u32 max-wait ms,
//	                      u8 flags (bit 0 = wait), u64 deadline UnixNano (0 = none)
//	           OpRelease  str resource, u64 token, u64 fence (0 = no claim)
//	           OpResume   str resource, u64 token, u64 fence
//	           OpPing     empty
//	           OpGranted  u64 token, u64 deadline UnixNano, u64 fence
//	           OpOK       empty
//	           OpError    u8 code, str message, u32 retry-after ms (0 = none)
//
// str is a u16-length-prefixed byte string (not validated as UTF-8; the
// service treats names as opaque bytes). The codec is strict: unknown
// versions, unknown ops, oversized fields, and payloads whose length
// does not exactly match their fields are all typed *WireError
// rejections — the fuzz target (FuzzServiceWire) holds the codec to
// "parse exactly or reject, never panic, and re-encode parsed frames
// byte-identically".
//
// What the fields are for: the acquire deadline lets the server clamp
// its queued wait to the client's remaining budget, so an abandoned
// client cannot pin a server goroutine. The fence on release/resume
// turns a zombie holder's stale claim into the typed ErrFenced. The
// retry-after hint on shed-class refusals is the server inserting a
// delay into the client's retry loop — the paper's delay-insertion
// argument applied to the re-arrival herd after a fault.
//
// The request ID is what lets one connection carry a window of
// outstanding ops with responses returning in completion order; the
// response echoes the ID and the layout of the request it answers. It
// lives in the payload, not the header, so frame-aware middleboxes (the
// chaos proxy) relay both layouts alike. Lock-step connections — one
// round trip at a time, nothing to demultiplex — leave it out.
const (
	WireVersion2 = 2
	WireVersion3 = 3
	// MaxPayload bounds one frame's payload; MaxResourceLen/MaxOwnerLen
	// bound the name fields.
	MaxPayload     = 1024
	MaxResourceLen = 256
	MaxOwnerLen    = 128
	wireHeaderLen  = 4
	// wireIDLen is the request-ID prefix inside a WireVersion3 payload.
	wireIDLen = 8
)

// Request op codes.
const (
	OpAcquire uint8 = 1
	OpRelease uint8 = 2
	OpPing    uint8 = 3
	// OpResume re-validates a lease over a fresh connection: the server
	// answers OpGranted if the token still holds the resource, or the
	// typed reason it no longer does.
	OpResume uint8 = 4
)

// Response op codes.
const (
	OpGranted uint8 = 129
	OpOK      uint8 = 130
	OpError   uint8 = 131
)

// Wire error codes carried by OpError responses; each maps to one typed
// service error so clients classify without string matching.
const (
	CodeNotHeld   uint8 = 1
	CodeExpired   uint8 = 2
	CodeClosed    uint8 = 3
	CodeQueueFull uint8 = 4
	CodeShed      uint8 = 5
	CodeDegraded  uint8 = 6
	CodeTimeout   uint8 = 7
	CodeNoWait    uint8 = 8
	CodeRevoked   uint8 = 9
	CodeBadFrame  uint8 = 10
	CodeInternal  uint8 = 11
	// CodeFenced: the release/resume named a lease that was fenced off —
	// a newer lease has been granted on the resource since.
	CodeFenced uint8 = 12
	// CodeDraining: the server is draining for shutdown and refuses new
	// acquires; the retry-after hint says when to try elsewhere.
	CodeDraining uint8 = 13
)

// WireError is a malformed-frame rejection.
type WireError struct{ Msg string }

func (e *WireError) Error() string { return "service: wire: " + e.Msg }

func wireErrf(format string, args ...any) error {
	return &WireError{Msg: fmt.Sprintf(format, args...)}
}

// Request is one decoded client frame.
type Request struct {
	// Version is the frame's version byte; 0 encodes as WireVersion2.
	// ReadRequest always sets it.
	Version  uint8
	Op       uint8
	Resource string
	Owner    string        // OpAcquire
	TTL      time.Duration // OpAcquire; millisecond granularity
	MaxWait  time.Duration // OpAcquire; millisecond granularity
	Wait     bool          // OpAcquire
	Token    uint64        // OpRelease, OpResume
	// Fence is the lease's fencing token (OpRelease, OpResume).
	Fence uint64
	// Deadline is the client's absolute per-op deadline, UnixNano
	// (OpAcquire; 0 = none).
	Deadline int64
	// ID is the pipelining request ID (WireVersion3 only); the response
	// to this request echoes it. Pipelined clients assign IDs from 1
	// upward.
	ID uint64
}

// Response is one decoded server frame.
type Response struct {
	// Version mirrors Request.Version; servers answer in the version the
	// request arrived in.
	Version  uint8
	Op       uint8
	Token    uint64 // OpGranted
	Deadline int64  // OpGranted; UnixNano
	Fence    uint64 // OpGranted
	Code     uint8  // OpError
	Msg      string // OpError
	// RetryAfter is the server's back-off hint on shed-class errors
	// (OpError; millisecond granularity, 0 = none).
	RetryAfter time.Duration
	// ID echoes the request's pipelining ID (WireVersion3 only).
	ID uint64
}

// beginFrame appends the header (its length field is patched by
// finishFrame) and, in the WireVersion3 layout, the request ID. An ID
// the layout cannot carry is an encoding error, not silent truncation.
func beginFrame(b []byte, version, op uint8, id uint64) ([]byte, error) {
	switch version {
	case 0, WireVersion2:
		if id != 0 {
			return nil, wireErrf("request id requires wire v3")
		}
		return append(b, WireVersion2, op, 0, 0), nil
	case WireVersion3:
		return binary.BigEndian.AppendUint64(append(b, WireVersion3, op, 0, 0), id), nil
	}
	return nil, wireErrf("unknown wire version %d", version)
}

// appendString encodes a u16-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// takeBytes decodes a u16-length-prefixed field bounded by max. The
// returned slice aliases b (the decoder's scratch); callers must copy or
// intern before the next frame is read.
func takeBytes(b []byte, max int, what string) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, wireErrf("truncated %s length", what)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if n > max {
		return nil, nil, wireErrf("%s length %d exceeds %d", what, n, max)
	}
	if len(b) < n {
		return nil, nil, wireErrf("truncated %s", what)
	}
	return b[:n], b[n:], nil
}

// durMS bounds a duration to the u32-millisecond wire range.
func durMS(d time.Duration) uint32 {
	ms := d.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > int64(^uint32(0)) {
		ms = int64(^uint32(0))
	}
	return uint32(ms)
}

// AppendRequest encodes a request frame onto b in the layout
// req.Version names. The encode is allocation-free when b has capacity:
// fields append in place and the length is patched afterward.
func AppendRequest(b []byte, req Request) ([]byte, error) {
	if len(req.Resource) > MaxResourceLen {
		return nil, wireErrf("resource length %d exceeds %d", len(req.Resource), MaxResourceLen)
	}
	if len(req.Owner) > MaxOwnerLen {
		return nil, wireErrf("owner length %d exceeds %d", len(req.Owner), MaxOwnerLen)
	}
	start := len(b)
	b, err := beginFrame(b, req.Version, req.Op, req.ID)
	if err != nil {
		return nil, err
	}
	switch req.Op {
	case OpAcquire:
		if req.Deadline < 0 {
			return nil, wireErrf("negative acquire deadline %d", req.Deadline)
		}
		b = appendString(b, req.Resource)
		b = appendString(b, req.Owner)
		b = binary.BigEndian.AppendUint32(b, durMS(req.TTL))
		b = binary.BigEndian.AppendUint32(b, durMS(req.MaxWait))
		var flags uint8
		if req.Wait {
			flags |= 1
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint64(b, uint64(req.Deadline))
	case OpRelease, OpResume:
		b = appendString(b, req.Resource)
		b = binary.BigEndian.AppendUint64(b, req.Token)
		b = binary.BigEndian.AppendUint64(b, req.Fence)
	case OpPing:
	default:
		return nil, wireErrf("unknown request op %d", req.Op)
	}
	return finishFrame(b, start)
}

// AppendResponse encodes a response frame onto b, allocation-free when b
// has capacity.
func AppendResponse(b []byte, resp Response) ([]byte, error) {
	start := len(b)
	b, err := beginFrame(b, resp.Version, resp.Op, resp.ID)
	if err != nil {
		return nil, err
	}
	switch resp.Op {
	case OpGranted:
		b = binary.BigEndian.AppendUint64(b, resp.Token)
		b = binary.BigEndian.AppendUint64(b, uint64(resp.Deadline))
		b = binary.BigEndian.AppendUint64(b, resp.Fence)
	case OpOK:
	case OpError:
		msg := resp.Msg
		if len(msg) > MaxResourceLen {
			msg = msg[:MaxResourceLen]
		}
		b = append(b, resp.Code)
		b = appendString(b, msg)
		b = binary.BigEndian.AppendUint32(b, durMS(resp.RetryAfter))
	default:
		return nil, wireErrf("unknown response op %d", resp.Op)
	}
	return finishFrame(b, start)
}

// finishFrame patches the frame's length field once the payload is in
// place.
func finishFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - wireHeaderLen
	if n > MaxPayload {
		return nil, wireErrf("payload length %d exceeds %d", n, MaxPayload)
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(n))
	return b, nil
}

// Decoder reads wire frames with zero steady-state allocations: the
// payload is read into a reusable scratch buffer and name strings are
// interned in a bounded per-decoder table (repeat names — the hot path —
// hit the map without allocating; Go elides the []byte→string conversion
// in map lookups). A Decoder is what every long-lived connection should
// read through; it is not safe for concurrent use. The zero value is
// ready.
type Decoder struct {
	scratch []byte
	names   map[string]string
}

// NewDecoder returns a connection-lifetime frame decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// maxInternedNames bounds each decoder's name table so an adversarial
// peer streaming unique names cannot grow it without bound; names past
// the cap still decode, they just allocate.
const maxInternedNames = 4096

// intern maps field bytes to a stable string, allocation-free once the
// name has been seen.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.names == nil {
		d.names = make(map[string]string)
	}
	if len(d.names) < maxInternedNames {
		d.names[s] = s
	}
	return s
}

// readFrame reads one frame header + payload from r into the decoder's
// scratch buffer; the returned payload aliases it.
func (d *Decoder) readFrame(r io.Reader) (version, op uint8, payload []byte, err error) {
	// The header reads through the scratch buffer too: a stack array
	// would escape through the io.Reader interface and cost one heap
	// allocation per frame.
	if cap(d.scratch) < wireHeaderLen {
		d.scratch = make([]byte, 0, MaxPayload)
	}
	hdr := d.scratch[:wireHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err // io.EOF between frames is a clean close
	}
	if hdr[0] != WireVersion2 && hdr[0] != WireVersion3 {
		return 0, 0, nil, wireErrf("unknown protocol version %d", hdr[0])
	}
	version, op = hdr[0], hdr[1]
	n := int(binary.BigEndian.Uint16(hdr[2:]))
	if n > MaxPayload {
		return 0, 0, nil, wireErrf("payload length %d exceeds %d", n, MaxPayload)
	}
	if cap(d.scratch) < n {
		d.scratch = make([]byte, 0, MaxPayload)
	}
	// Overwrites the header bytes; they are already parsed into locals.
	payload = d.scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		// A mid-payload cut is a transport fault (the peer or the network
		// died), not a protocol violation: wrap rather than convert to
		// *WireError so it classifies retryable.
		return 0, 0, nil, fmt.Errorf("service: wire: truncated payload: %w", err)
	}
	return version, op, payload, nil
}

// takeU64 pops a big-endian u64; the caller has already length-checked.
func takeU64(b []byte) (uint64, []byte) {
	return binary.BigEndian.Uint64(b), b[8:]
}

// takeID strips the request-ID prefix a WireVersion3 payload starts with.
func takeID(version uint8, payload []byte) (uint64, []byte, error) {
	if version != WireVersion3 {
		return 0, payload, nil
	}
	if len(payload) < wireIDLen {
		return 0, nil, wireErrf("truncated request id")
	}
	id, rest := takeU64(payload)
	return id, rest, nil
}

// ReadRequest decodes one request frame from r. io.EOF (and only a
// clean EOF at a frame boundary) passes through unchanged so servers
// can distinguish a closed connection from a malformed frame.
func (d *Decoder) ReadRequest(r io.Reader) (Request, error) {
	version, op, payload, err := d.readFrame(r)
	if err != nil {
		return Request{}, err
	}
	req := Request{Version: version, Op: op}
	if req.ID, payload, err = takeID(version, payload); err != nil {
		return Request{}, err
	}
	switch op {
	case OpAcquire:
		var res, owner []byte
		res, payload, err = takeBytes(payload, MaxResourceLen, "resource")
		if err != nil {
			return Request{}, err
		}
		owner, payload, err = takeBytes(payload, MaxOwnerLen, "owner")
		if err != nil {
			return Request{}, err
		}
		if len(payload) != 17 {
			return Request{}, wireErrf("acquire payload has %d trailing bytes, want 17", len(payload))
		}
		req.TTL = time.Duration(binary.BigEndian.Uint32(payload)) * time.Millisecond
		req.MaxWait = time.Duration(binary.BigEndian.Uint32(payload[4:])) * time.Millisecond
		flags := payload[8]
		if flags > 1 {
			return Request{}, wireErrf("unknown acquire flags %#x", flags)
		}
		req.Wait = flags&1 != 0
		dl := binary.BigEndian.Uint64(payload[9:])
		if dl > uint64(1)<<63-1 {
			return Request{}, wireErrf("acquire deadline %#x out of range", dl)
		}
		req.Deadline = int64(dl)
		if len(res) == 0 {
			return Request{}, wireErrf("empty resource")
		}
		req.Resource = d.intern(res)
		req.Owner = d.intern(owner)
	case OpRelease, OpResume:
		var res []byte
		res, payload, err = takeBytes(payload, MaxResourceLen, "resource")
		if err != nil {
			return Request{}, err
		}
		if len(payload) != 16 {
			return Request{}, wireErrf("%s payload has %d trailing bytes, want 16", opName(op), len(payload))
		}
		req.Token, payload = takeU64(payload)
		req.Fence, _ = takeU64(payload)
		if len(res) == 0 {
			return Request{}, wireErrf("empty resource")
		}
		req.Resource = d.intern(res)
	case OpPing:
		if len(payload) != 0 {
			return Request{}, wireErrf("ping payload has %d bytes, want 0", len(payload))
		}
	default:
		return Request{}, wireErrf("unknown request op %d", op)
	}
	return req, nil
}

func opName(op uint8) string {
	switch op {
	case OpAcquire:
		return "acquire"
	case OpRelease:
		return "release"
	case OpPing:
		return "ping"
	case OpResume:
		return "resume"
	}
	return fmt.Sprintf("op%d", op)
}

// ReadResponse decodes one response frame from r.
func (d *Decoder) ReadResponse(r io.Reader) (Response, error) {
	version, op, payload, err := d.readFrame(r)
	if err != nil {
		return Response{}, err
	}
	resp := Response{Version: version, Op: op}
	if resp.ID, payload, err = takeID(version, payload); err != nil {
		return Response{}, err
	}
	switch op {
	case OpGranted:
		if len(payload) != 24 {
			return Response{}, wireErrf("granted payload has %d bytes, want 24", len(payload))
		}
		resp.Token = binary.BigEndian.Uint64(payload)
		resp.Deadline = int64(binary.BigEndian.Uint64(payload[8:]))
		resp.Fence = binary.BigEndian.Uint64(payload[16:])
	case OpOK:
		if len(payload) != 0 {
			return Response{}, wireErrf("ok payload has %d bytes, want 0", len(payload))
		}
	case OpError:
		if len(payload) < 1 {
			return Response{}, wireErrf("error payload empty")
		}
		resp.Code = payload[0]
		msg, rest, err := takeBytes(payload[1:], MaxResourceLen, "message")
		if err != nil {
			return Response{}, err
		}
		resp.Msg = string(msg)
		if len(rest) != 4 {
			return Response{}, wireErrf("error payload has %d trailing bytes, want 4", len(rest))
		}
		resp.RetryAfter = time.Duration(binary.BigEndian.Uint32(rest)) * time.Millisecond
	default:
		return Response{}, wireErrf("unknown response op %d", op)
	}
	return resp, nil
}

// errorCode maps a typed service error to its wire code.
func errorCode(err error) uint8 {
	switch {
	case errors.Is(err, ErrNotHeld):
		return CodeNotHeld
	case errors.Is(err, ErrLeaseExpired):
		return CodeExpired
	case errors.Is(err, ErrClosed):
		return CodeClosed
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, ErrShed):
		return CodeShed
	case errors.Is(err, ErrDegraded):
		return CodeDegraded
	case errors.Is(err, ErrWaitTimeout):
		return CodeTimeout
	case errors.Is(err, ErrNoWait):
		return CodeNoWait
	case errors.Is(err, ErrRevoked):
		return CodeRevoked
	case errors.Is(err, ErrFenced):
		return CodeFenced
	case errors.Is(err, ErrDraining):
		return CodeDraining
	}
	return CodeInternal
}

// shedClass reports whether a wire code names a load-shedding refusal
// that deserves a retry-after hint.
func shedClass(code uint8) bool {
	switch code {
	case CodeQueueFull, CodeShed, CodeDegraded, CodeDraining:
		return true
	}
	return false
}

// codeError maps a decoded error response back to the typed service
// error; the client side of errorCode. A retry-after hint is wrapped
// around the sentinel (see RetryAfterHint).
func codeError(resp Response) error {
	var err error
	switch resp.Code {
	case CodeNotHeld:
		err = ErrNotHeld
	case CodeExpired:
		err = ErrLeaseExpired
	case CodeClosed:
		err = ErrClosed
	case CodeQueueFull:
		err = ErrQueueFull
	case CodeShed:
		err = ErrShed
	case CodeDegraded:
		err = ErrDegraded
	case CodeTimeout:
		err = ErrWaitTimeout
	case CodeNoWait:
		err = ErrNoWait
	case CodeRevoked:
		err = ErrRevoked
	case CodeFenced:
		err = ErrFenced
	case CodeDraining:
		err = ErrDraining
	case CodeBadFrame:
		return &WireError{Msg: resp.Msg}
	default:
		return fmt.Errorf("service: server error: %s", resp.Msg)
	}
	if resp.RetryAfter > 0 {
		return &RetryAfterError{Err: err, After: resp.RetryAfter}
	}
	return err
}
