package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"herald/internal/shard"
	"herald/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0.2, 1}, {0.5, 3}, {0.6, 3}, {0.61, 4}, {1, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestTailRule(t *testing.T) {
	// The p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(999, 0.99); got != 9 {
		t.Errorf("beyond(999, 0.99) = %d, want 9", got)
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{0.99, 1000}, {0.95, 200}, {0.9, 100}, {0.75, 40}, {0.5, 20}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := span{Start: 0, End: ms(10)}
	children := []span{
		{Start: ms(1), End: ms(3)},
		{Start: ms(2), End: ms(5)},  // overlaps the first: [1,5) counts once
		{Start: ms(8), End: ms(12)}, // only [8,10) lies inside the parent
	}
	if got := selfTime(parent, children); got != ms(4) {
		t.Errorf("selfTime = %v, want 4ms", got)
	}
	if got := selfTime(parent, nil); got != ms(10) {
		t.Errorf("selfTime without children = %v, want 10ms", got)
	}
	if got := unionLen([]interval{{ms(5), ms(6)}, {0, ms(2)}, {ms(1), ms(3)}}); got != ms(4) {
		t.Errorf("unionLen = %v, want 4ms", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", 0, 0, 0)
	s.end()
	tr.add(span{Name: "y"})
	if s.id() != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded something")
	}
}

func TestChromeTraceParses(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 7, 1)
	tr.begin("child", root.id(), 7, 2).end()
	root.end()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != float64(root.id()) {
		t.Fatalf("unexpected events: %+v", doc.TraceEvents)
	}
}

func TestLineTapSplitsChunks(t *testing.T) {
	var lines []string
	tap := lineTap{fn: func(l []byte) { lines = append(lines, string(l)) }}
	for _, chunk := range []string{"ab", "c\nde", "f\n\ng", "h\n"} {
		tap.feed([]byte(chunk))
	}
	want := []string{"abc\n", "def\n", "\n", "gh\n"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q, want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("lines = %q, want %q", lines, want)
		}
	}
}

// pipeWorker serves the shard protocol in-process behind a
// countingPipe, exactly as a spawned worker process would over stdio.
func pipeWorker(t *testing.T, log *wireLog) shard.Worker {
	t.Helper()
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- shard.ServeStream(struct {
			io.Reader
			io.Writer
		}{toWorkerR, fromWorkerW})
		fromWorkerW.Close()
	}()
	w := shard.NewRemoteWorker("test", shard.NewTransport(newCountingPipe(log, 3, fromWorkerR, toWorkerW)), 1)
	t.Cleanup(func() {
		w.Close()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	})
	return w
}

func TestCountingPipePairsJobsWithResults(t *testing.T) {
	log := newWireLog()
	w := pipeWorker(t, log)
	p := sim.PaperDefaults(4, 1e-4, 0.01)
	wire, err := shard.EncodeParams(p)
	if err != nil {
		t.Fatal(err)
	}
	o := sim.Options{Iterations: 512, MissionTime: 1e5, Seed: 99, Workers: 1}
	for id := 8; id <= 12; id += 4 { // ids of one and two digits
		parts, err := w.Run(&shard.Job{ID: id, Start: 0, End: 512, Params: wire, Options: o})
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) == 0 {
			t.Fatal("no partials")
		}
	}
	jobs := log.since(0)
	log.mu.Lock()
	msgs, raw := log.msgs, log.bytes
	log.mu.Unlock()
	if log.malformed() != 0 {
		t.Fatalf("%d malformed lines", log.malformed())
	}
	if msgs != 5 { // hello, then a job and a result per run
		t.Fatalf("messages = %d, want 5", msgs)
	}
	if len(jobs) != 2 {
		t.Fatalf("paired jobs = %d, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.Worker != 3 || j.Seed != 99 || j.Start != 0 || j.End != 512 || j.Reply != shard.MsgResult || j.Msgs != 2 || j.Done.Before(j.Sent) {
			t.Fatalf("bad pairing: %+v", j)
		}
	}
	// Identical jobs count identical bytes whatever their id width, and
	// the paired bytes plus the id digits and the hello add up to all
	// bytes seen.
	if jobs[0].Bytes != jobs[1].Bytes {
		t.Errorf("job bytes %d vs %d differ with the id width", jobs[0].Bytes, jobs[1].Bytes)
	}
	hello, _ := json.Marshal(shard.Message{Type: shard.MsgHello, Version: shard.ProtocolVersion})
	want := jobs[0].Bytes + jobs[1].Bytes + 2*int64(len(strconv.Itoa(8))+len(strconv.Itoa(12))) + int64(len(hello)+1)
	if raw != want {
		t.Errorf("raw bytes %d, want %d", raw, want)
	}
}

func TestSummaryBookRejectsCorruptedSummary(t *testing.T) {
	p := sim.PaperDefaults(4, 1e-4, 0.01)
	o := sim.Options{Iterations: 500, MissionTime: 1e5, Seed: 5, Workers: 1}
	s, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(good, []byte(`"Iterations":500`), []byte(`"Iterations":501`), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("corruption did not apply")
	}
	book := newSummaryBook()
	if err := book.check("fp", good); err != nil {
		t.Fatal(err)
	}
	if err := book.check("fp", good); err != nil {
		t.Fatalf("identical summary rejected: %v", err)
	}
	if err := book.check("fp", bad); err == nil {
		t.Fatal("corrupted summary accepted")
	}
	if err := sameAsInProcess(p, o, good); err != nil {
		t.Fatalf("in-process rerun disagrees: %v", err)
	}
	if err := sameAsInProcess(p, o, bad); err == nil {
		t.Fatal("corrupted summary matched the in-process rerun")
	}
}

func TestClosedFormRule(t *testing.T) {
	pt := point{Policy: sim.Conventional, Disks: 4, Lambda: 1e-4, HEP: 0.01}
	cf, err := pt.closedForm()
	if err != nil {
		t.Fatal(err)
	}
	ok := sim.Summary{Availability: cf + 1e-7, HalfWidth: 1e-7}
	if err := checkClosedForm(ok, cf); err != nil {
		t.Errorf("estimate within the rule rejected: %v", err)
	}
	off := sim.Summary{Availability: cf - 4*ok.HalfWidth - 0.04*(1-cf), HalfWidth: ok.HalfWidth}
	if err := checkClosedForm(off, cf); err == nil {
		t.Error("estimate outside the rule accepted")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

func TestTallyJobsMatchesOwnersAndUnionsBusyTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	a, b := tr.begin("a", 0, 1, 0), tr.begin("b", 0, 2, 0)
	jobs := []jobRecord{
		{ID: 1, Worker: 0, Seed: 1, Sent: at(0), Done: at(4), Reply: shard.MsgResult, Msgs: 2},
		{ID: 2, Worker: 0, Seed: 1, Sent: at(2), Done: at(6), Reply: shard.MsgCancelled, Msgs: 3}, // overlaps job 1 on worker 0
		{ID: 3, Worker: 1, Seed: 2, Sent: at(1), Done: at(3), Reply: shard.MsgResult, Msgs: 2},
		{ID: 4, Worker: 1, Seed: 9, Sent: at(0), Done: at(9), Reply: shard.MsgResult, Msgs: 2}, // no owner
	}
	owners := map[uint64]open{1: a, 2: b}
	got := tallyJobs(tr, jobs, 100, func(j jobRecord) (uint64, open, bool) {
		o, ok := owners[j.Seed]
		return j.Seed, o, ok
	})
	if len(got.spans[1]) != 2 || len(got.spans[2]) != 1 || len(got.jobs) != 2 {
		t.Fatalf("spans by owner = %v", got.spans)
	}
	if sp := got.spans[2][0]; sp.Parent != b.id() || sp.Req != 2 || sp.Lane != 101 || sp.dur() != 2*time.Millisecond {
		t.Errorf("job 3's span = %+v", sp)
	}
	if got.busy != 8*time.Millisecond { // [0,6) on worker 0, [1,3) on worker 1
		t.Errorf("busy = %v, want 8ms", got.busy)
	}
	if len(got.rtt) != 2 || got.msgs != 7 {
		t.Errorf("rtt = %v, msgs = %d; want two result round trips and 7 messages", got.rtt, got.msgs)
	}
	if n := len(named(tr.snapshot(), "shard.job")); n != 3 {
		t.Errorf("%d shard.job spans recorded, want 3", n)
	}
}

// countedWorkload is a workload whose set-ups report kept jobs; the
// set-up numbered drift (1-based) reports one more.
type countedWorkload struct {
	setups *int
	drift  int
}

func (w countedWorkload) setup() error { *w.setups++; return nil }

func (w countedWorkload) setupCounts() []runRecord {
	r := runRecord{summary: "s", iters: 1000, keptJobs: 2}
	if *w.setups == w.drift {
		r.keptJobs++
	}
	return []runRecord{r}
}

func (w countedWorkload) measure(*tracer, time.Duration) (*phase, error) {
	return &phase{makespan: []float64{1}, light: []float64{1}, heavy: []float64{2}, lightTail: 1, heavyTail: 2, attempted: 1}, nil
}

func (w countedWorkload) peakRSSKB() (int64, error) { return 1, nil }
func (w countedWorkload) close() error              { return nil }

func TestSetupCountDriftFailsRun(t *testing.T) {
	for _, c := range []struct {
		drift int
		want  bool
	}{{0, true}, {3, false}} {
		n := 0
		mk := func(config) workload { return countedWorkload{setups: &n, drift: c.drift} }
		res, err := run(mk, config{seed: 1}, time.Millisecond, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if n != setupReps || res.Correct != c.want {
			t.Errorf("drift at set-up %d: %d set-ups, correct=%v; want %d, %v", c.drift, n, res.Correct, setupReps, c.want)
		}
	}
}
