// Package cliconfig holds the flag-value parsing shared by the
// serving-layer CLIs (cmd/lockserve, cmd/lockload).
// Each helper turns one comma-list or keyword flag into validated
// values; the CLIs keep only their flag declarations and wiring. All
// errors are plain values — the CLIs decide exit codes (the repo
// convention: 2 for unusable configuration, 1 for runtime failure) via
// ExitCode.
package cliconfig

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"iqolb/internal/service"
	"iqolb/locks"
)

// PositiveInts parses a comma-separated list of positive integers
// (client counts, chaos seeds). what names the
// quantity in errors.
func PositiveInts(s, what string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad %s %q", what, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// Policies parses a grant-policy flag for the flat load runner:
// "handoff", "broadcast", or "both". "both" needs an in-process server
// (an external server's policy is fixed), signalled by an empty addr.
func Policies(s, addr string) ([]service.Policy, error) {
	if s == "both" {
		if addr != "" {
			return nil, fmt.Errorf(`-policy both needs an in-process server (the policy is fixed by the external server); pick "handoff" or "broadcast"`)
		}
		return []service.Policy{service.PolicyHandoff, service.PolicyBroadcast}, nil
	}
	p, err := service.ParsePolicy(s)
	if err != nil {
		return nil, err
	}
	return []service.Policy{p}, nil
}

// ExitCode maps an error onto the repo's CLI exit-code convention:
// configuration errors (service.ConfigError, locks.UnknownKindError)
// are 2, anything else 1, nil 0.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var ce *service.ConfigError
	var uk *locks.UnknownKindError
	if errors.As(err, &ce) || errors.As(err, &uk) {
		return 2
	}
	return 1
}
