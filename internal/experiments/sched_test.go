package experiments

import (
	"strings"
	"testing"
)

// Options.Scheduler must override the policy of every simulated launch:
// a bad spelling errors at the boundary, and a non-default policy
// changes the simulated timing of a scheduler-sensitive experiment.
func TestSchedulerOverride(t *testing.T) {
	if _, err := Fig12c(Options{Quick: true, Scheduler: "fifo"}); err == nil ||
		!strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("bad scheduler spelling should error, got %v", err)
	}
	def := runQuick(t, "fig12c")
	lrr, err := Fig12c(Options{Quick: true, Scheduler: "lrr"})
	if err != nil {
		t.Fatal(err)
	}
	if def.String() == lrr.String() {
		t.Errorf("lrr override produced the gto table verbatim; the override is inert")
	}
	gto, err := Fig12c(Options{Quick: true, Scheduler: "gto"})
	if err != nil {
		t.Fatal(err)
	}
	if def.String() != gto.String() {
		t.Errorf("explicit gto differs from the default:\n%s\nvs\n%s", def.String(), gto.String())
	}
}
