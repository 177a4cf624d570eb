package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"herald/internal/shard"
)

// jobRecord is one job of the shard protocol as seen on a worker's
// pipes: the job message the coordinator wrote and the reply
// (result, cancelled or error) the worker wrote back, paired by job id.
type jobRecord struct {
	ID, Worker int
	Seed       uint64
	Start, End int // iteration range
	Sent, Done time.Time
	Reply      string // "result", "cancelled" or "error"
	Msgs       int    // job, reply and any cancel
	// Bytes counts those messages, newlines included, but not the
	// digits of the job id each carries once: ids come from the pool's
	// job counter, so their width depends on how many jobs ran before
	// and would make the count differ between repeats of one run.
	Bytes int64
}

func (j jobRecord) iters() int { return j.End - j.Start }

// wireMsg is the part of a shard protocol message the pairing reads.
type wireMsg struct {
	Type string `json:"type"`
	ID   int    `json:"id"`
	Job  *struct {
		ID      int `json:"id"`
		Start   int `json:"start"`
		End     int `json:"end"`
		Options struct {
			Seed uint64 `json:"Seed"`
		} `json:"options"`
	} `json:"job"`
}

// wireLog counts every message and byte crossing the worker pipes and
// pairs each job with its reply. It is shared by all workers of a
// pool: job ids are unique per coordinator.
type wireLog struct {
	mu       sync.Mutex
	msgs     int64
	bytes    int64
	pending  map[int]*jobRecord
	finished []jobRecord
	bad      int // lines that did not parse as protocol messages
}

func newWireLog() *wireLog { return &wireLog{pending: make(map[int]*jobRecord)} }

// observe accounts one newline-terminated message written by the
// coordinator (toWorker) or by the worker.
func (l *wireLog) observe(worker int, toWorker bool, line []byte, now time.Time) {
	var m wireMsg
	err := json.Unmarshal(line, &m)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs++
	l.bytes += int64(len(line))
	if err != nil {
		l.bad++
		return
	}
	switch {
	case toWorker && m.Type == shard.MsgJob && m.Job != nil:
		l.pending[m.Job.ID] = &jobRecord{
			ID: m.Job.ID, Worker: worker, Seed: m.Job.Options.Seed, Start: m.Job.Start, End: m.Job.End, Sent: now, Msgs: 1, Bytes: idFree(line, m.Job.ID),
		}
	case toWorker && m.Type == shard.MsgCancel:
		if j := l.pending[m.ID]; j != nil {
			j.Msgs++
			j.Bytes += idFree(line, m.ID)
		}
	case !toWorker && (m.Type == shard.MsgResult || m.Type == shard.MsgCancelled || m.Type == shard.MsgError):
		if j := l.pending[m.ID]; j != nil {
			delete(l.pending, m.ID)
			j.Msgs++
			j.Bytes += idFree(line, m.ID)
			j.Done, j.Reply = now, m.Type
			l.finished = append(l.finished, *j)
		}
	}
}

// idFree is a message's length without the digits of its job id.
func idFree(line []byte, id int) int64 {
	return int64(len(line) - len(strconv.Itoa(id)))
}

// wireMark is a point in a wireLog's history: the jobs finished so far.
type wireMark int

func (l *wireLog) mark() wireMark {
	l.mu.Lock()
	defer l.mu.Unlock()
	return wireMark(len(l.finished))
}

// since returns the jobs finished after m.
func (l *wireLog) since(m wireMark) []jobRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]jobRecord(nil), l.finished[m:]...)
}

// forget drops the finished jobs, so that a long phase that reads none
// does not grow the log. Marks taken before it no longer apply.
func (l *wireLog) forget() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.finished = nil
}

func (l *wireLog) malformed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bad
}

// jobTally is what a traced phase's job/reply pairs add up to once
// each job is matched to the request or run that owns it.
type jobTally[T comparable] struct {
	spans map[T][]span      // each owner's shard.job spans
	jobs  map[T][]jobRecord // the same jobs' records
	busy  time.Duration     // per worker, union of outstanding-job time, summed over workers
	rtt   []float64         // ms, job sent to result read
	msgs  int
}

// tallyJobs matches each job to its owner, records a shard.job span for
// it under the owner's span, on lane plus the job's worker, and tallies
// busy time, result round trips and messages. Jobs without an owner are
// skipped. tr must not be nil.
func tallyJobs[T comparable](tr *tracer, jobs []jobRecord, lane int, owner func(jobRecord) (T, open, bool)) jobTally[T] {
	t := jobTally[T]{spans: make(map[T][]span), jobs: make(map[T][]jobRecord)}
	busy := make(map[int][]interval)
	for _, j := range jobs {
		o, parent, ok := owner(j)
		if !ok {
			continue
		}
		sp := span{Name: "shard.job", Parent: parent.id(), Req: parent.s.Req, Lane: lane + j.Worker, Start: tr.at(j.Sent), End: tr.at(j.Done)}
		tr.add(sp)
		t.spans[o] = append(t.spans[o], sp)
		t.jobs[o] = append(t.jobs[o], j)
		busy[j.Worker] = append(busy[j.Worker], interval{sp.Start, sp.End})
		t.msgs += j.Msgs
		if j.Reply == shard.MsgResult {
			t.rtt = append(t.rtt, millis(sp.dur()))
		}
	}
	for _, ivs := range busy {
		t.busy += unionLen(ivs)
	}
	return t
}

// lineTap splits a byte stream into newline-terminated lines and hands
// each complete line to fn. It is fed by one goroutine at a time.
type lineTap struct {
	buf []byte
	fn  func(line []byte)
}

func (t *lineTap) feed(p []byte) {
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			t.buf = append(t.buf, p...)
			return
		}
		line := p[:i+1]
		if len(t.buf) > 0 {
			t.buf = append(t.buf, line...)
			line = t.buf
		}
		t.fn(line)
		t.buf = t.buf[:0]
		p = p[i+1:]
	}
}

// countingPipe is the coordinator's end of one worker's stdio: reads
// come from the worker's stdout, writes go to its stdin, and both
// directions pass through a lineTap into the shared wireLog. Close
// closes stdin, which makes the worker exit.
type countingPipe struct {
	r       io.Reader
	w       io.WriteCloser
	in, out lineTap
}

func newCountingPipe(log *wireLog, worker int, stdout io.Reader, stdin io.WriteCloser) *countingPipe {
	p := &countingPipe{r: stdout, w: stdin}
	p.in.fn = func(line []byte) { log.observe(worker, false, line, time.Now()) }
	p.out.fn = func(line []byte) { log.observe(worker, true, line, time.Now()) }
	return p
}

func (p *countingPipe) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.in.feed(b[:n])
	return n, err
}

func (p *countingPipe) Write(b []byte) (int, error) {
	p.out.feed(b)
	return p.w.Write(b)
}

func (p *countingPipe) Close() error { return p.w.Close() }

// fleet is a set of local shard worker processes built the way
// shard.SpawnLocal builds them — this executable re-run with
// shard.WorkerEnv set, served by shard.MaybeWorker, driven through
// shard.NewTransport and shard.NewRemoteWorker(name, t, 1) — with a
// countingPipe between the transport and the process.
type fleet struct {
	workers []shard.Worker
	cmds    []*exec.Cmd
	log     *wireLog
}

func spawnFleet(n int) (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate executable: %w", err)
	}
	f := &fleet{log: newWireLog()}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), shard.WorkerEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			f.close()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			f.close()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			f.close()
			return nil, fmt.Errorf("spawn worker: %w", err)
		}
		f.cmds = append(f.cmds, cmd)
		t := shard.NewTransport(newCountingPipe(f.log, i, stdout, stdin))
		f.workers = append(f.workers, shard.NewRemoteWorker(fmt.Sprintf("proc:%d", cmd.Process.Pid), t, 1))
	}
	return f, nil
}

// peakRSSKB sums the peak resident set of the worker processes.
func (f *fleet) peakRSSKB() (int64, error) {
	var total int64
	for _, c := range f.cmds {
		kb, err := peakRSS(strconv.Itoa(c.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total, nil
}

// close closes every worker's transport (the process sees EOF and
// exits) and waits for the processes; one that fails to exit cleanly
// is killed.
func (f *fleet) close() error {
	var first error
	for _, w := range f.workers {
		w.Close()
	}
	for _, c := range f.cmds {
		if err := c.Wait(); err != nil {
			_ = c.Process.Kill()
			if first == nil {
				first = fmt.Errorf("worker %d: %w", c.Process.Pid, err)
			}
		}
	}
	return first
}

// peakRSS reads a process's peak resident set size (VmHWM) in KiB
// from /proc; pid may be "self".
func peakRSS(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
