package locks

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// kinds is the fixed table behind New/Kinds/ParseKind, in canonical
// (report) order.
var kinds = [...]struct {
	kind  Kind
	build func(config) Lock
}{
	{KindTTS, func(c config) Lock { return newTTS(c) }},
	{KindTicket, func(c config) Lock { return newTicket(c) }},
	{KindMCS, func(c config) Lock { return newMCS(c) }},
	{KindCLH, func(c config) Lock { return newCLH(c) }},
	{KindAdaptive, func(c config) Lock { return newAdaptive(c) }},
}

// Kinds lists every primitive in the canonical report order — CLI
// enumeration and report rows.
func Kinds() []Kind {
	out := make([]Kind, len(kinds))
	for i, k := range kinds {
		out[i] = k.kind
	}
	return out
}

// New builds a lock of the given kind.
func New(k Kind, opts ...Option) (Lock, error) {
	for _, e := range kinds {
		if e.kind == k {
			return e.build(buildConfig(opts)), nil
		}
	}
	return nil, &UnknownKindError{Kind: k, Known: Kinds()}
}

// ParseKind resolves a kind name, validating it against the table.
func ParseKind(s string) (Kind, error) {
	k := Kind(s)
	if !slices.Contains(Kinds(), k) {
		return "", &UnknownKindError{Kind: k, Known: Kinds()}
	}
	return k, nil
}

// UnknownKindError reports a kind name absent from the table.
type UnknownKindError struct {
	Kind  Kind
	Known []Kind
}

func (e *UnknownKindError) Error() string {
	names := make([]string, len(e.Known))
	for i, k := range e.Known {
		names[i] = string(k)
	}
	sort.Strings(names)
	return fmt.Sprintf("locks: unknown kind %q (have %s)", string(e.Kind), strings.Join(names, " "))
}
