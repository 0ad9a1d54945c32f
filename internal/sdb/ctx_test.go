package sdb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// planFixture builds a catalog with three joined tables and returns a
// three-way plan, large enough that execution takes measurable time.
func planFixture(t *testing.T, n int) *Plan {
	t.Helper()
	return mustPlan(t, uniformCatalog(t, n, "a", "b", "c"), threeWay, 0)
}

func TestExecuteContextBackground(t *testing.T) {
	plan := planFixture(t, 2000)
	want, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("ExecuteContext rows = %d, Execute rows = %d", got.Len(), want.Len())
	}
}

func TestExecuteContextCancelled(t *testing.T) {
	plan := planFixture(t, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.ExecuteContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestExecuteContextDeadlineAbortsPromptly(t *testing.T) {
	// The workload must outlast the runtime's ~10ms sysmon preemption
	// window: on a single-CPU box a shorter CPU-bound execution finishes
	// before the deadline timer can even fire, and the poll never sees an
	// expired context (observed as a flake at n=8000 / 1ms).
	plan := planFixture(t, 24000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := plan.ExecuteContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// The join polls per node-visit batch; abort must be far quicker than a
	// full three-way join over 8000-item tables.
	if elapsed > time.Second {
		t.Fatalf("cancelled execution took %v, expected prompt abort", elapsed)
	}
}
