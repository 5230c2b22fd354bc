package service

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		// Without a request ID (the decoder reports version 2).
		{Version: 2, Op: OpAcquire, Resource: "db", Owner: "alice", TTL: time.Second, MaxWait: 50 * time.Millisecond, Wait: true, Deadline: 1755550000000000000},
		{Version: 2, Op: OpAcquire, Resource: "r", Owner: "", TTL: 0, MaxWait: 0, Wait: false},
		{Version: 2, Op: OpRelease, Resource: "db", Token: 7, Fence: 3},
		{Version: 2, Op: OpRelease, Resource: "db", Token: 0xdeadbeefcafe},
		{Version: 2, Op: OpResume, Resource: "db", Token: 7, Fence: 3},
		{Version: 2, Op: OpPing},
		// With one: the same bodies behind the ID.
		{Version: 3, Op: OpAcquire, Resource: "db", Owner: "alice", TTL: time.Second, MaxWait: 50 * time.Millisecond, Wait: true, Deadline: 1755550000000000000, ID: 1},
		{Version: 3, Op: OpAcquire, Resource: "r", Owner: "o", TTL: time.Second, ID: 0xffffffffffffffff},
		{Version: 3, Op: OpRelease, Resource: "db", Token: 7, Fence: 3, ID: 42},
		{Version: 3, Op: OpResume, Resource: "db", Token: 7, Fence: 3, ID: 43},
		{Version: 3, Op: OpPing, ID: 44},
		{Version: 3, Op: OpPing}, // ID 0 is legal
	}
	d := NewDecoder()
	for _, req := range reqs {
		b, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		got, err := d.ReadRequest(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v, want %+v", got, req)
		}
		// Canonical: re-encoding the parsed frame is byte-identical.
		b2, err := AppendRequest(nil, got)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("re-encode not canonical: %x vs %x (%v)", b, b2, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Version: 2, Op: OpGranted, Token: 42, Deadline: 123456789, Fence: 9},
		{Version: 2, Op: OpOK},
		{Version: 2, Op: OpError, Code: CodeShed, Msg: "shed", RetryAfter: 2 * time.Millisecond},
		{Version: 2, Op: OpError, Code: CodeDraining, Msg: "draining"},
		{Version: 3, Op: OpGranted, Token: 42, Deadline: 123456789, Fence: 9, ID: 7},
		{Version: 3, Op: OpOK, ID: 8},
		{Version: 3, Op: OpError, Code: CodeShed, Msg: "shed", RetryAfter: 2 * time.Millisecond, ID: 9},
	}
	d := NewDecoder()
	for _, resp := range resps {
		b, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		got, err := d.ReadResponse(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if got != resp {
			t.Fatalf("round trip: got %+v, want %+v", got, resp)
		}
		b2, err := AppendResponse(nil, got)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("re-encode not canonical: %x vs %x (%v)", b, b2, err)
		}
	}
}

func TestRequestEncodeBounds(t *testing.T) {
	long := string(make([]byte, MaxResourceLen+1))
	if _, err := AppendRequest(nil, Request{Op: OpPing, Resource: long}); err == nil {
		t.Fatal("oversized resource accepted")
	}
	if _, err := AppendRequest(nil, Request{Op: 99}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Retired and unknown version bytes do not encode.
	for _, v := range []uint8{1, 4} {
		if _, err := AppendRequest(nil, Request{Version: v, Op: OpPing}); err == nil {
			t.Fatalf("request version %d accepted", v)
		}
		if _, err := AppendResponse(nil, Response{Version: v, Op: OpOK}); err == nil {
			t.Fatalf("response version %d accepted", v)
		}
	}
	// A zero version encodes as WireVersion2.
	if b, err := AppendRequest(nil, Request{Op: OpPing}); err != nil || b[0] != WireVersion2 {
		t.Fatalf("zero version encoded as %x, %v", b, err)
	}
	// Request IDs need the layout that carries them.
	if _, err := AppendRequest(nil, Request{Version: 2, Op: OpPing, ID: 1}); err == nil {
		t.Fatal("v2 request with id accepted")
	}
	if _, err := AppendResponse(nil, Response{Op: OpOK, ID: 1}); err == nil {
		t.Fatal("v2 response with id accepted")
	}
}

func TestMalformedFrames(t *testing.T) {
	cases := map[string][]byte{
		"bad version":       {9, OpPing, 0, 0},
		"retired version":   {1, OpPing, 0, 0},
		"v3 truncated id":   {3, OpPing, 0, 4, 0, 0, 0, 1}, // v3 payload shorter than the 8-byte ID prefix
		"oversized payload": {2, OpAcquire, 0xff, 0xff},
		"unknown op":        {2, 77, 0, 0},
		"ping with payload": {2, OpPing, 0, 1, 0},
		// Hand-built release frame naming a zero-length resource.
		"empty resource": append([]byte{2, OpRelease, 0, 18}, make([]byte, 18)...),
		"acquire bad flags": func() []byte {
			b, _ := AppendRequest(nil, Request{Op: OpAcquire, Resource: "r", Wait: true})
			b[len(b)-9] = 0xff // the flags byte sits ahead of the 8-byte deadline
			return b
		}(),
		"truncated string": {2, OpRelease, 0, 3, 0, 9, 'r'},
		// Trailing lengths are exact: a body short of a field must reject.
		"acquire missing deadline": func() []byte {
			b, _ := AppendRequest(nil, Request{Op: OpAcquire, Resource: "r", Owner: "o", TTL: time.Second})
			b = b[:len(b)-8]
			b[3] -= 8
			return b
		}(),
		"release missing fence": func() []byte {
			b, _ := AppendRequest(nil, Request{Op: OpRelease, Resource: "r", Token: 1})
			b = b[:len(b)-8]
			b[3] -= 8
			return b
		}(),
		// A v2 body inside a v3 frame would eat the body's first 8 bytes
		// as an ID and fail the exact-length check.
		"v3 frame, v2 release body": func() []byte {
			b, _ := AppendRequest(nil, Request{Version: 2, Op: OpRelease, Resource: "r", Token: 1, Fence: 2})
			b[0] = 3
			return b
		}(),
		"v2 frame, v3 acquire body": func() []byte {
			b, _ := AppendRequest(nil, Request{Version: 3, Op: OpAcquire, Resource: "r", Owner: "o", TTL: time.Second, ID: 5})
			b[0] = 2
			return b
		}(),
	}
	d := NewDecoder()
	for name, frame := range cases {
		_, err := d.ReadRequest(bytes.NewReader(frame))
		var we *WireError
		if !errors.As(err, &we) {
			t.Errorf("%s: err = %v, want *WireError", name, err)
		}
	}
	// Clean EOF at a frame boundary passes through untyped.
	if _, err := d.ReadRequest(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	// A mid-payload cut is a transport fault, not a protocol violation:
	// it must classify retryable, not *WireError.
	full, _ := AppendRequest(nil, Request{Op: OpRelease, Resource: "res", Token: 1})
	_, err := d.ReadRequest(bytes.NewReader(full[:len(full)-2]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v, want io.ErrUnexpectedEOF", err)
	}
	var we *WireError
	if errors.As(err, &we) {
		t.Fatalf("truncated payload typed as *WireError: %v", err)
	}
	if !Retryable(err) {
		t.Fatalf("truncated payload not retryable: %v", err)
	}
}

func TestErrorCodeBijection(t *testing.T) {
	for _, err := range []error{
		ErrNotHeld, ErrLeaseExpired, ErrClosed, ErrQueueFull, ErrShed,
		ErrDegraded, ErrWaitTimeout, ErrNoWait, ErrRevoked, ErrFenced,
		ErrDraining,
	} {
		code := errorCode(err)
		back := codeError(Response{Op: OpError, Code: code, Msg: err.Error()})
		if !errors.Is(back, err) {
			t.Errorf("code %d: %v does not round-trip (got %v)", code, err, back)
		}
	}
	if errorCode(errors.New("surprise")) != CodeInternal {
		t.Error("untyped error not mapped to CodeInternal")
	}
}

func TestRetryAfterHintRoundTrip(t *testing.T) {
	resp := Response{Version: 2, Op: OpError, Code: CodeShed, Msg: "shed", RetryAfter: 3 * time.Millisecond}
	err := codeError(resp)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("hinted error lost its sentinel: %v", err)
	}
	hint, ok := RetryAfterHint(err)
	if !ok || hint != 3*time.Millisecond {
		t.Fatalf("hint = %v, %v; want 3ms, true", hint, ok)
	}
	if _, ok := RetryAfterHint(ErrShed); ok {
		t.Fatal("bare sentinel reported a hint")
	}
}

// TestDecoderStream drives one Decoder across an interleaved pipelined
// stream: scratch reuse must not let a later frame corrupt an earlier
// decode, and interned names must be stable across frames.
func TestDecoderStream(t *testing.T) {
	reqs := []Request{
		{Version: 3, Op: OpAcquire, Resource: "db", Owner: "alice", TTL: time.Second, Wait: true, ID: 1},
		{Version: 3, Op: OpAcquire, Resource: "cache", Owner: "bob", TTL: time.Second, ID: 2},
		{Version: 3, Op: OpRelease, Resource: "db", Token: 5, Fence: 1, ID: 3},
		{Version: 3, Op: OpAcquire, Resource: "db", Owner: "alice", TTL: time.Second, Wait: true, ID: 4},
		{Version: 3, Op: OpPing, ID: 5},
		{Version: 2, Op: OpResume, Resource: "db", Token: 5, Fence: 1}, // mixed versions on one stream
	}
	var stream []byte
	for _, req := range reqs {
		b, err := AppendRequest(stream, req)
		if err != nil {
			t.Fatal(err)
		}
		stream = b
	}
	d := NewDecoder()
	r := bytes.NewReader(stream)
	var got []Request
	for {
		req, err := d.ReadRequest(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, req)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("frame %d: got %+v, want %+v", i, got[i], reqs[i])
		}
	}
	if got[0].Resource != "db" || got[3].Resource != "db" {
		t.Fatal("interned resource mismatch")
	}
}

// FuzzServiceWire fuzzes both directions of the codec, with and without
// request IDs. For any byte stream the decoder must (a) never panic, (b)
// either parse a frame and re-encode it byte-identically from the
// consumed prefix, or (c) reject typed: a *WireError for protocol
// violations, io.EOF for a clean close at a frame boundary, or a
// wrapped io.ErrUnexpectedEOF for a mid-frame cut (a transport fault).
func FuzzServiceWire(f *testing.F) {
	seed := func(b []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(AppendRequest(nil, Request{Op: OpAcquire, Resource: "db", Owner: "alice", TTL: time.Second, MaxWait: 50 * time.Millisecond, Wait: true, Deadline: 1755550000000000000})))
	f.Add(seed(AppendRequest(nil, Request{Op: OpRelease, Resource: "db", Token: 7, Fence: 3})))
	f.Add(seed(AppendRequest(nil, Request{Op: OpResume, Resource: "db", Token: 7, Fence: 3})))
	f.Add(seed(AppendResponse(nil, Response{Op: OpGranted, Token: 1, Deadline: 99, Fence: 4})))
	f.Add(seed(AppendResponse(nil, Response{Op: OpOK})))
	f.Add(seed(AppendResponse(nil, Response{Op: OpError, Code: CodeDraining, Msg: "draining", RetryAfter: 2 * time.Millisecond})))
	// Cross-layout seeds: a valid body under the other version byte.
	cross := func(req Request, v byte) []byte {
		b := seed(AppendRequest(nil, req))
		b[0] = v
		return b
	}
	f.Add(seed(AppendRequest(nil, Request{Version: 2, Op: OpPing})))
	// Frames with request IDs.
	f.Add(seed(AppendRequest(nil, Request{Version: 3, Op: OpAcquire, Resource: "db", Owner: "alice", TTL: time.Second, Wait: true, ID: 1})))
	f.Add(seed(AppendRequest(nil, Request{Version: 3, Op: OpRelease, Resource: "db", Token: 7, Fence: 3, ID: 2})))
	f.Add(seed(AppendRequest(nil, Request{Version: 3, Op: OpResume, Resource: "db", Token: 7, Fence: 3, ID: 3})))
	f.Add(seed(AppendResponse(nil, Response{Version: 3, Op: OpGranted, Token: 1, Deadline: 99, Fence: 4, ID: 3})))
	f.Add(seed(AppendResponse(nil, Response{Version: 3, Op: OpError, Code: CodeShed, Msg: "shed", RetryAfter: time.Millisecond, ID: 2})))
	f.Add(cross(Request{Version: 3, Op: OpPing, ID: 9}, 2))
	f.Add(cross(Request{Version: 2, Op: OpRelease, Resource: "r", Token: 1, Fence: 2}, 3))
	// Pipelined/interleaved corpora: several v3 frames with distinct IDs
	// back to back, and out-of-order response IDs (the demux router's
	// input shape).
	interleaved := func(frames ...[]byte) []byte {
		var b []byte
		for _, f := range frames {
			b = append(b, f...)
		}
		return b
	}
	f.Add(interleaved(
		seed(AppendRequest(nil, Request{Version: 3, Op: OpAcquire, Resource: "a", Owner: "o", TTL: time.Second, ID: 1})),
		seed(AppendRequest(nil, Request{Version: 3, Op: OpAcquire, Resource: "b", Owner: "o", TTL: time.Second, ID: 2})),
		seed(AppendRequest(nil, Request{Version: 3, Op: OpRelease, Resource: "a", Token: 5, ID: 3})),
		seed(AppendRequest(nil, Request{Version: 3, Op: OpPing, ID: 4})),
	))
	f.Add(interleaved(
		seed(AppendResponse(nil, Response{Version: 3, Op: OpGranted, Token: 5, Deadline: 9, Fence: 1, ID: 2})),
		seed(AppendResponse(nil, Response{Version: 3, Op: OpOK, ID: 3})),
		seed(AppendResponse(nil, Response{Version: 3, Op: OpGranted, Token: 6, Deadline: 9, Fence: 2, ID: 1})),
	))
	f.Add([]byte{9, 1, 0, 0})             // bad version
	f.Add([]byte{1, 3, 0, 0})             // retired version
	f.Add([]byte{2, 1, 0xff, 0xff})       // oversized
	f.Add([]byte{2, 3, 0, 0, 2, 1, 0})    // ping then truncated frame
	f.Add([]byte{3, 3, 0, 4, 0, 0, 0, 1}) // v3 payload shorter than its ID prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder()
		r := bytes.NewReader(data)
		req, err := d.ReadRequest(r)
		if err == nil {
			consumed := data[:len(data)-r.Len()]
			enc, err := AppendRequest(nil, req)
			if err != nil {
				t.Fatalf("parsed request %+v does not re-encode: %v", req, err)
			}
			if !bytes.Equal(enc, consumed) {
				t.Fatalf("request re-encode differs:\n  consumed %x\n  encoded  %x", consumed, enc)
			}
		} else if !isCleanWireReject(err) {
			t.Fatalf("request decode error not typed: %v", err)
		}

		r = bytes.NewReader(data)
		resp, err := d.ReadResponse(r)
		if err == nil {
			consumed := data[:len(data)-r.Len()]
			enc, err := AppendResponse(nil, resp)
			if err != nil {
				t.Fatalf("parsed response %+v does not re-encode: %v", resp, err)
			}
			if !bytes.Equal(enc, consumed) {
				t.Fatalf("response re-encode differs:\n  consumed %x\n  encoded  %x", consumed, enc)
			}
		} else if !isCleanWireReject(err) {
			t.Fatalf("response decode error not typed: %v", err)
		}
	})
}

// isCleanWireReject reports whether a decode error is one of the
// contract's allowed rejections.
func isCleanWireReject(err error) bool {
	var we *WireError
	return errors.As(err, &we) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}
