package cliconfig

import (
	"errors"
	"testing"

	"iqolb/internal/service"
	"iqolb/locks"
)

func TestPositiveInts(t *testing.T) {
	got, err := PositiveInts("1, 4,16", "client count")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("PositiveInts = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "x", "4,,8"} {
		if _, err := PositiveInts(bad, "count"); err == nil {
			t.Errorf("PositiveInts(%q) accepted", bad)
		}
	}
}

func TestPolicies(t *testing.T) {
	both, err := Policies("both", "")
	if err != nil || len(both) != 2 {
		t.Fatalf("Policies(both) = %v, %v", both, err)
	}
	if _, err := Policies("both", "10.0.0.1:7"); err == nil {
		t.Fatal("both with external addr accepted")
	}
	one, err := Policies("broadcast", "10.0.0.1:7")
	if err != nil || len(one) != 1 || one[0] != service.PolicyBroadcast {
		t.Fatalf("Policies(broadcast) = %v, %v", one, err)
	}
	if _, err := Policies("zigzag", ""); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestExitCode(t *testing.T) {
	if got := ExitCode(nil); got != 0 {
		t.Fatalf("ExitCode(nil) = %d", got)
	}
	if _, err := service.New(service.Config{Shards: -1}); ExitCode(err) != 2 {
		t.Fatalf("config error exit = %d, want 2", ExitCode(err))
	}
	if _, err := locks.New(locks.Kind("zigzag")); ExitCode(err) != 2 {
		t.Fatalf("unknown kind exit = %d, want 2", ExitCode(err))
	}
	if got := ExitCode(errors.New("boom")); got != 1 {
		t.Fatalf("runtime error exit = %d, want 1", got)
	}
}
