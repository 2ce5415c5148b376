package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// microScale runs every experiment in a few seconds, for CI.
func microScale() Scale {
	return Scale{
		Name: "micro", RMATScale: 7, RMATDeg: 4,
		DiskService:    0,
		StragglerDelay: 500 * time.Microsecond, StragglerCount: 5,
		MetaVertices: 600,
		ServerCounts: []int{2, 4}, Fig11Runs: 1,
	}
}

func TestGetScaleVariants(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "paper"} {
		t.Setenv("GRAPHTREK_SCALE", name)
		s, err := GetScale()
		if err != nil || s.Name != name {
			t.Errorf("GRAPHTREK_SCALE=%s -> %q, %v", name, s.Name, err)
		}
		if s.RMATScale < 7 || len(s.ServerCounts) == 0 {
			t.Errorf("scale %s degenerate: %+v", name, s)
		}
	}
	t.Setenv("GRAPHTREK_SCALE", "")
	if s, err := GetScale(); err != nil || s.Name != "small" {
		t.Errorf("default scale = %q, %v", s.Name, err)
	}
	// A misspelt scale must not quietly run small: it takes minutes where
	// tiny takes seconds.
	t.Setenv("GRAPHTREK_SCALE", "tny")
	if _, err := GetScale(); err == nil || !strings.Contains(err.Error(), "tiny, small, medium or paper") {
		t.Errorf("GRAPHTREK_SCALE=tny: err = %v, want one naming the four scales", err)
	}
}

// TestEveryExperimentRunsAtMicroScale runs every registered experiment. A
// runner returns an error when a property its figure rests on breaks — the
// §VII-A accounting identity (fig7, ablation), engine equivalence (table3),
// a non-empty metadata graph (table2) — so this test fails on any of them.
func TestEveryExperimentRunsAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in short mode")
	}
	wantText := map[string]string{
		"table1":     "TABLE I",
		"fig7":       "FIGURE 7",
		"fig8":       "FIGURE 8",
		"fig9":       "FIGURE 9",
		"fig10":      "FIGURE 10",
		"fig11":      "FIGURE 11",
		"table2":     "TABLE II",
		"table3":     "TABLE III",
		"ablation":   "ABLATION",
		"concurrent": "CONCURRENT",
		"partition":  "PARTITION",
	}
	s := microScale()
	for _, name := range Order {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Experiments[name](s, &buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !strings.Contains(buf.String(), wantText[name]) {
				t.Errorf("%s output missing header %q:\n%s", name, wantText[name], buf.String())
			}
		})
	}
}

func TestOrderCoversAllExperiments(t *testing.T) {
	if len(Order) != len(Experiments) {
		t.Fatalf("Order has %d entries, Experiments has %d", len(Order), len(Experiments))
	}
	for _, name := range Order {
		if Experiments[name] == nil {
			t.Errorf("experiment %q in Order but not registered", name)
		}
	}
}

func TestHopPlanShape(t *testing.T) {
	p, err := hopPlan(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSteps() != 4 {
		t.Errorf("steps = %d, want seed + 3 hops", p.NumSteps())
	}
	for i := 1; i < p.NumSteps(); i++ {
		if p.Steps[i].EdgeLabel != "link" {
			t.Errorf("step %d label = %q", i, p.Steps[i].EdgeLabel)
		}
	}
}

func TestFmtDur(t *testing.T) {
	if got := fmtDur(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(2500 * time.Microsecond); got != "2.5ms" {
		t.Errorf("fmtDur = %q", got)
	}
}
