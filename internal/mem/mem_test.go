package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrGeometry(t *testing.T) {
	cases := []struct {
		addr Addr
		line LineID
		word int
	}{
		{0, 0, 0},
		{8, 0, 1},
		{56, 0, 7},
		{64, 1, 0},
		{200, 3, 1},
	}
	for _, c := range cases {
		if got := c.addr.Line(); got != c.line {
			t.Errorf("Addr(%d).Line() = %d, want %d", c.addr, got, c.line)
		}
		if got := c.addr.WordIndex(); got != c.word {
			t.Errorf("Addr(%d).WordIndex() = %d, want %d", c.addr, got, c.word)
		}
	}
	if !Addr(16).Aligned() || Addr(17).Aligned() {
		t.Error("alignment check wrong")
	}
}

// Property: line/word decomposition is a bijection for aligned addresses.
func TestPropertyAddrRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw &^ (WordSize - 1) % (1 << 40))
		back := a.Line().Base() + Addr(a.WordIndex()*WordSize)
		return back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a Result survives the trip through an event argument, so a
// completion delivered as an event reads what the controller sent.
func TestPropertyResultArgRoundTrip(t *testing.T) {
	f := func(r Result) bool { return ResultOf(r.Arg()) == r }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatePredicates(t *testing.T) {
	type want struct {
		read, write, owner, dirty bool
	}
	cases := map[State]want{
		Invalid:   {false, false, false, false},
		Shared:    {true, false, false, false},
		Exclusive: {true, true, true, false},
		Owned:     {true, false, true, true},
		Modified:  {true, true, true, true},
	}
	for s, w := range cases {
		if s.CanRead() != w.read || s.CanWrite() != w.write ||
			s.IsOwner() != w.owner || s.Dirty() != w.dirty {
			t.Errorf("state %s predicates wrong", s)
		}
	}
}

func TestStringers(t *testing.T) {
	if Modified.String() != "M" || Invalid.String() != "I" {
		t.Error("state names wrong")
	}
	if TxLPRFO.String() != "LPRFO" || TxGETS.String() != "GETS" {
		t.Error("tx names wrong")
	}
	if DataTearOff.String() != "TearOff" {
		t.Error("data names wrong")
	}
	if LoadLinked.String() != "LL" || StoreCond.String() != "SC" {
		t.Error("access names wrong")
	}
	if MemoryNode.String() != "Mem" || NodeID(4).String() != "P4" {
		t.Error("node names wrong")
	}
}

func TestTxWantsOwnership(t *testing.T) {
	for _, tx := range []TxKind{TxGETX, TxUPGR, TxLPRFO} {
		if !tx.WantsOwnership() {
			t.Errorf("%s should want ownership", tx)
		}
	}
	for _, tx := range []TxKind{TxGETS, TxWB} {
		if tx.WantsOwnership() {
			t.Errorf("%s should not want ownership", tx)
		}
	}
}

func TestAccessIsWrite(t *testing.T) {
	for _, k := range []AccessKind{Store, StoreCond, SwapOp, DeqolbOp} {
		if !k.IsWrite() {
			t.Errorf("%s should be a write", k)
		}
	}
	for _, k := range []AccessKind{Load, LoadLinked, EnqolbOp} {
		if k.IsWrite() {
			t.Errorf("%s should not be a write", k)
		}
	}
}
