package coherence

import (
	"fmt"
	"strings"

	"iqolb/internal/mem"
)

// DebugLine renders one line's full coherence state across the machine —
// the fabric registers, every node's cache state, MSHR, loan and duty
// bookkeeping. It is the first tool to reach for when a protocol-level
// hang or invariant violation needs diagnosing.
func (f *Fabric) DebugLine(line mem.LineID) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "line %d (base %#x): owner=%s holder=%s\n",
		line, uint64(line.Base()), f.ownerOf(line), f.holderOf(line))
	if ml := f.memory.lines[line]; ml != nil && ml.wbInFlight > 0 {
		fmt.Fprintf(&sb, "  memory: %d writeback(s) in flight, %d deferred supplies\n",
			ml.wbInFlight, len(ml.deferred))
	}
	for _, c := range f.nodes {
		s := c.debugLine(line)
		if s != "" {
			sb.WriteString(s)
		}
	}
	return sb.String()
}

func (c *Controller) debugLine(line mem.LineID) string {
	state := c.l2.State(line)
	ls := c.at(line)
	m, duties, loaned, waiting := ls.mshr, ls.duties, ls.loanedOut, len(ls.loanWait)
	linked := c.linkValid && c.linkAddr.Line() == line
	holding := c.policy.HoldingLockOn(line)
	if state == mem.Invalid && m == nil && len(duties) == 0 && !loaned && waiting == 0 && !linked && !holding {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %s: state=%s", c.id, state)
	if m != nil {
		fmt.Fprintf(&sb, " mshr{tx=%s observed=%v opDone=%v tear=%v pending=%d}",
			m.txKind, m.observed, m.opDone, m.hasTear, len(m.pending))
	}
	if loaned {
		fmt.Fprintf(&sb, " LOANED-OUT(waiters=%d)", waiting)
	}
	if linked {
		fmt.Fprintf(&sb, " linked(fragile=%v)", c.linkFragile)
	}
	if holding {
		sb.WriteString(" holding-lock")
	}
	for _, d := range duties {
		fmt.Fprintf(&sb, " duty{%s from %s delayed=%v inService=%v removed=%v loan=%v}",
			d.tx.Kind, d.tx.Requester, d.delayed, d.inService, d.removed, d.loan)
	}
	sb.WriteByte('\n')
	return sb.String()
}
