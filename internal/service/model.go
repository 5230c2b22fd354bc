package service

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"iqolb/internal/linearize"
)

// This file is the service's sequential specification and the recorder
// of the concurrent histories checked against it. It is the one copy:
// the in-package linearizability, migration and crash suites and the
// chaos campaigns (lockload -chaos, at run time) all record with History
// and check with LeaseModel.
//
// State: which token (if any) holds each resource, plus the sets of
// expired and revoked tokens. Tokens are globally unique, so the model
// never needs generation counters. An op touches exactly one resource
// and the model keeps no cross-resource state, so a history may be
// split per resource (LeaseOp.Res) and the pieces checked
// independently — a product-machine decomposition that keeps each piece
// inside the checker's 64-op memoization bound.

// The verbs of the model's inputs.
const (
	VerbAcquire = "acquire"
	VerbRelease = "release"
	VerbResume  = "resume"
	VerbRevoke  = "revoke"
	VerbExpire  = "expire"
)

// LeaseOp is one operation as the model sees it: the input half of a
// linearize.Op. Outputs are the granted (acquire), re-validated (resume)
// or revoked (revoke; 0 = nothing to revoke) token as a uint64, or the
// verdict string of AcquireCode / ReleaseCode; an expiry has none.
type LeaseOp struct {
	Verb   string
	Res    string
	Token  uint64 // release, resume, expire: the lease named
	NoWait bool   // acquire: refused, not queued, when the resource is held
}

func (o LeaseOp) String() string {
	if o.Verb == VerbAcquire {
		return fmt.Sprintf("acquire(%s,nowait=%v)", o.Res, o.NoWait)
	}
	if o.Verb == VerbRevoke {
		return fmt.Sprintf("revoke(%s)", o.Res)
	}
	return fmt.Sprintf("%s(%s,#%d)", o.Verb, o.Res, o.Token)
}

type modelState struct {
	hold    map[string]uint64
	expired map[uint64]bool
	revoked map[uint64]bool
}

func (st modelState) clone() modelState {
	n := modelState{
		hold:    make(map[string]uint64, len(st.hold)),
		expired: make(map[uint64]bool, len(st.expired)),
		revoked: make(map[uint64]bool, len(st.revoked)),
	}
	for k, v := range st.hold {
		n.hold[k] = v
	}
	for k := range st.expired {
		n.expired[k] = true
	}
	for k := range st.revoked {
		n.revoked[k] = true
	}
	return n
}

// LeaseModel is the sequential lease specification, a linearize.Model
// over LeaseOp inputs.
type LeaseModel struct{}

// Init implements linearize.Model.
func (LeaseModel) Init() any {
	return modelState{hold: map[string]uint64{}, expired: map[uint64]bool{}, revoked: map[uint64]bool{}}
}

// Step implements linearize.Model.
func (LeaseModel) Step(state any, input, output any) (any, bool) {
	st := state.(modelState)
	in := input.(LeaseOp)
	holds := st.hold[in.Res] == in.Token // release, resume, expire
	switch in.Verb {
	case VerbAcquire:
		switch out := output.(type) {
		case uint64: // granted
			if st.hold[in.Res] != 0 {
				return state, false
			}
			n := st.clone()
			n.hold[in.Res] = out
			return n, true
		case string:
			switch out {
			case "busy": // ErrNoWait: legal only while the resource is held
				return state, st.hold[in.Res] != 0
			case "timeout", "queuefull", "shed", "closed", "draining":
				// Admission refusals, timeouts and the lifecycle
				// verdicts are legal no-ops: they depend on queue
				// occupancy, timing or lifecycle, which the sequential
				// lease model does not track.
				return state, true
			}
		}
	case VerbRelease, VerbResume:
		switch out := output.(type) {
		case uint64: // resume re-validated: the token must still hold
			return state, in.Verb == VerbResume && out == in.Token && holds
		case string:
			switch out {
			case "ok":
				if in.Verb != VerbRelease || !holds {
					return state, false
				}
				n := st.clone()
				delete(n.hold, in.Res)
				return n, true
			case "notheld":
				return state, !holds && !st.expired[in.Token] && !st.revoked[in.Token]
			case "expired":
				return state, st.expired[in.Token]
			case "revoked":
				return state, st.revoked[in.Token]
			case "fenced":
				// A fenced rejection proves the token does not hold the
				// resource (a newer grant exists); the model does not
				// track fence counters, so that is exactly the legality
				// condition.
				return state, !holds
			case "closed", "draining":
				return state, in.Verb == VerbResume
			}
		}
	case VerbRevoke:
		tok := output.(uint64)
		if tok == 0 || st.hold[in.Res] != tok {
			// Nothing to revoke is legal only on a free resource.
			return state, tok == 0 && st.hold[in.Res] == 0
		}
		n := st.clone()
		delete(n.hold, in.Res)
		n.revoked[tok] = true
		return n, true
	case VerbExpire:
		if !holds {
			return state, false
		}
		n := st.clone()
		delete(n.hold, in.Res)
		n.expired[in.Token] = true
		return n, true
	}
	return state, false
}

// Key implements linearize.Model.
func (LeaseModel) Key(state any) string {
	st := state.(modelState)
	var parts []string
	for r, t := range st.hold {
		parts = append(parts, fmt.Sprintf("h:%s=%d", r, t))
	}
	for t := range st.expired {
		parts = append(parts, fmt.Sprintf("e:%d", t))
	}
	for t := range st.revoked {
		parts = append(parts, fmt.Sprintf("r:%d", t))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// History records a concurrent history: a global logical clock plus a
// thread-safe op log. The zero value is ready to use.
type History struct {
	clock atomic.Int64
	mu    sync.Mutex
	ops   []linearize.Op
}

// Tick advances and returns the logical clock; an op's Call and Ret are
// ticks taken around the call into the service.
func (h *History) Tick() int64 { return h.clock.Add(1) }

// Add logs one completed op.
func (h *History) Add(client int, call, ret int64, in LeaseOp, out any) {
	h.mu.Lock()
	h.ops = append(h.ops, linearize.Op{ClientID: client, Call: call, Ret: ret, Input: in, Output: out})
	h.mu.Unlock()
}

// Expired logs a lease's expiry; it is the Config.OnExpire of a recorded
// service. Expiry linearizes somewhere before the callback, so Call=0 is
// the sound (maximally wide) lower bound; exactly-once and held-by-token
// legality still come from the model.
func (h *History) Expired(l Lease) {
	h.Add(-1, 0, h.Tick(), LeaseOp{Verb: VerbExpire, Res: l.Resource, Token: l.Token}, nil)
}

// Ops returns a copy of the log.
func (h *History) Ops() []linearize.Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]linearize.Op(nil), h.ops...)
}

// AcquireCode maps an acquire's typed error to a model output.
func AcquireCode(err error) string {
	switch {
	case errors.Is(err, ErrNoWait):
		return "busy"
	case errors.Is(err, ErrWaitTimeout):
		return "timeout"
	case errors.Is(err, ErrQueueFull):
		return "queuefull"
	case errors.Is(err, ErrShed), errors.Is(err, ErrDegraded):
		return "shed"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrClosed):
		return "closed"
	}
	return "unknown:" + err.Error()
}

// ReleaseCode maps a release's or resume's typed error to a model
// output.
func ReleaseCode(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotHeld):
		return "notheld"
	case errors.Is(err, ErrLeaseExpired):
		return "expired"
	case errors.Is(err, ErrRevoked):
		return "revoked"
	case errors.Is(err, ErrFenced):
		return "fenced"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrClosed):
		return "closed"
	}
	return "unknown:" + err.Error()
}
