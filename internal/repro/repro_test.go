package repro

import (
	"strconv"
	"strings"
	"testing"
)

// fast returns options small enough for unit tests.
func fast() Options {
	return Options{MCIterations: 200, MissionTime: 2e5, Seed: 99, Workers: 2}
}

func TestFig4ProducesValidation(t *testing.T) {
	tb, err := Fig4(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 { // 6 lambdas x 2 heps
		t.Fatalf("row count = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[5] != "yes" && row[5] != "no" {
			t.Fatalf("CI column = %q", row[5])
		}
	}
}

func TestFig5CoversPaperPairs(t *testing.T) {
	tb, err := Fig5(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 { // 4 pairs x 3 heps
		t.Fatalf("row count = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "1.48") {
		t.Fatal("missing the steepest Weibull shape")
	}
}

func TestFig6RankingFlip(t *testing.T) {
	tables, err := Fig6(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("panel count = %d", len(tables))
	}
	// Panel (a), lambda = 1e-5: RAID1 leads at hep=0 and trails
	// RAID5(3+1) at hep=0.01 — the paper's §V-C flip.
	panelA := tables[0]
	nines := func(row int, col int) float64 {
		v, err := strconv.ParseFloat(panelA.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("bad cell %q", panelA.Rows[row][col])
		}
		return v
	}
	const hep0Col, hep01Col = 4, 6
	r1Zero, r5Zero := nines(0, hep0Col), nines(1, hep0Col)
	if r1Zero <= r5Zero {
		t.Fatalf("hep=0: RAID1 %v should lead RAID5(3+1) %v", r1Zero, r5Zero)
	}
	r1HE, r5HE := nines(0, hep01Col), nines(1, hep01Col)
	if r1HE >= r5HE {
		t.Fatalf("hep=0.01: RAID1 %v should trail RAID5(3+1) %v", r1HE, r5HE)
	}
	// And RAID5(7+1) leads everything at hep=0.01 (lowest ERF).
	r5wHE := nines(2, hep01Col)
	if r5wHE <= r5HE || r5wHE <= r1HE {
		t.Fatalf("hep=0.01: RAID5(7+1) %v should lead (%v, %v)", r5wHE, r5HE, r1HE)
	}
}

func TestFig7FailoverGain(t *testing.T) {
	tb, err := Fig7(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("row count = %d", len(tb.Rows))
	}
	// At hep=0.01 the gain column should report roughly two orders of
	// magnitude (paper's §V-D).
	gain, err := strconv.ParseFloat(tb.Rows[2][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if gain < 50 {
		t.Fatalf("fail-over gain = %v, want order(s) of magnitude", gain)
	}
}

func TestUnderestimationHeadline(t *testing.T) {
	tb, err := Underestimation(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("row count = %d", len(tb.Rows))
	}
	// The sweep must reach the paper's 263x order of magnitude.
	maxRatio := 0.0
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[4])
		}
		if v > maxRatio {
			maxRatio = v
		}
	}
	if maxRatio < 100 || maxRatio > 1000 {
		t.Fatalf("max underestimation ratio = %v; paper reports up to 263x", maxRatio)
	}
}

func TestAblationVariants(t *testing.T) {
	tb, err := Ablation(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatalf("row count = %d", len(tb.Rows))
	}
	out := tb.String()
	for _, want := range []string{"literal Fig.2", "fail-over", "muCH"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation missing %q", want)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	for _, id := range All() {
		tables, err := Run(id, fast())
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("experiment %s returned no tables", id)
		}
	}
	if _, err := Run("nope", fast()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunAllWritesEverything(t *testing.T) {
	var sb strings.Builder
	for _, id := range All() {
		tables, err := Run(id, fast())
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		for _, tb := range tables {
			sb.WriteString(tb.String())
		}
	}
	out := sb.String()
	for _, want := range []string{"Fig. 4", "Fig. 5", "Fig. 6a", "Fig. 6b", "Fig. 6c", "Fig. 7", "Headline", "Ablation", "Sensitivity", "undo latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("experiment output missing %q", want)
		}
	}
}

func TestSensitivityRanksHumanErrorKnobs(t *testing.T) {
	tb, err := Sensitivity(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatalf("row count = %d", len(tb.Rows))
	}
	out := tb.String()
	for _, want := range []string{"hep", "muDDF", "lambda"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sensitivity missing %q:\n%s", want, out)
		}
	}
	// The top-ranked (first) row in the human-error regime must be a
	// near-unit elasticity knob (lambda or hep).
	first := tb.Rows[0][0]
	if !strings.Contains(first, "lambda") && !strings.Contains(first, "hep") {
		t.Fatalf("unexpected top knob %q", first)
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := Options{}.withDefaults()
	if d.MCIterations == 0 || d.MissionTime == 0 || d.Confidence == 0 || d.Seed == 0 {
		t.Fatalf("defaults incomplete: %+v", d)
	}
	custom := Options{MCIterations: 7, MissionTime: 5, Seed: 3, Confidence: 0.5, Workers: 2}.withDefaults()
	if custom.MCIterations != 7 || custom.MissionTime != 5 || custom.Seed != 3 ||
		custom.Confidence != 0.5 || custom.Workers != 2 {
		t.Fatalf("overrides lost: %+v", custom)
	}
}

func TestUndoLawsShape(t *testing.T) {
	tb, err := UndoLaws(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("row count = %d, want one per undo law", len(tb.Rows))
	}
	if tb.Rows[0][0] != "exponential (paper)" {
		t.Fatalf("first row %q is not the exponential baseline", tb.Rows[0][0])
	}
	// Every law is mean-matched: the mean column must read 1.000.
	for _, row := range tb.Rows {
		if row[1] != "1.000" {
			t.Fatalf("law %q has mean %s, want 1.000 (mean-matched)", row[0], row[1])
		}
	}
	// The baseline's deltas are zero by construction.
	if tb.Rows[0][4] != "+0.000" || tb.Rows[0][6] != "+0.000" {
		t.Fatalf("baseline deltas = %s / %s", tb.Rows[0][4], tb.Rows[0][6])
	}
	// Shape variety: the cv^2 column must span below and above the
	// exponential's 1.
	if tb.Rows[1][2] != "0.50" {
		t.Fatalf("erlang-2 cv^2 = %s", tb.Rows[1][2])
	}
	if !strings.Contains(tb.String(), "10.50") {
		t.Fatal("missing the heaviest-tailed hyperexp row")
	}
}
