package vserve

import (
	"testing"

	"d3t/internal/sim"
)

// FuzzParseSessionPlan fuzzes the session-churn grammar — the resilience
// fault grammar applied to the session population. Beyond not panicking
// or hanging, an accepted plan must schedule departures in time order
// against valid 1-based session indexes, because Fleet.catchUp indexes
// the population with Fault.Node - 1.
func FuzzParseSessionPlan(f *testing.F) {
	for _, spec := range []string{
		"", "none",
		"crash:1@10", "crash:5@10+20", "churn:5", "churn:5:40", "churn:0.1:0.1",
		"crash:max@10", "churn:Inf", "churn:NaN:1", "churn:1e308", "leave:1@2",
		"crash:1@", "crash:@1", "churn::", "churn:5:",
	} {
		f.Add(spec, 50, 200)
	}
	f.Fuzz(func(t *testing.T, spec string, sessions, ticks int) {
		sessions = 1 + absInt(sessions)%5000
		ticks = 2 + absInt(ticks)%10000
		plan, err := ParseSessionPlan(spec, sessions, ticks, sim.Second, 7)
		if err != nil || plan == nil {
			return
		}
		for i, ft := range plan.Faults {
			if i > 0 && ft.At < plan.Faults[i-1].At {
				t.Fatalf("spec %q: departure %d at %v before %d at %v", spec, i, ft.At, i-1, plan.Faults[i-1].At)
			}
			if ft.Node >= 1 && int(ft.Node) > sessions {
				t.Fatalf("spec %q: departure %d names session %v of %d", spec, i, ft.Node, sessions)
			}
			if ft.RejoinAt != 0 && ft.RejoinAt <= ft.At {
				t.Fatalf("spec %q: re-arrival %v not after departure %v", spec, ft.RejoinAt, ft.At)
			}
		}
	})
}

func absInt(v int) int {
	if v < 0 {
		if v == -v {
			return 0
		}
		return -v
	}
	return v
}
