package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"herald/internal/serve"
	"herald/internal/shard"
	"herald/internal/sim"
)

// serve_mix: requests into serve.NewServer, mounted on a loopback
// httptest listener over a shard.Pool of local worker processes —
// availserve's default deployment — from nproc closed client loops.
// Light requests are cache hits on a warm set filled during set-up;
// heavy ones are misses, each a new fingerprint whose small run becomes
// a cache write. The 80/20 hit/miss mix is an assumption: there is no
// traffic log to take it from.
const (
	serveHitShare  = 0.8
	serveWarm      = 32 // warm-set fingerprints, well under the default 256 cache entries
	serveMissIters = 2_000
	serveMission   = 1e5
	serveTimeout   = 10 * time.Second
	// A round is a batch of serveBatch requests. Tails are taken within
	// a round and the median over rounds is reported: one stall of the
	// shared host then moves one round's figures, not the run's. A round
	// holds ~2,400 hits and ~600 misses, so p99 and p98 keep at least
	// 10 samples beyond them.
	serveBatch     = 3_000
	serveHitTail   = 0.99
	serveMissTail  = 0.98
	serveLaneRound = 19
	serveLaneLoop  = 20
	serveLaneJob   = 100
)

// serveConfigs are the array configurations requests rotate through.
var serveConfigs = []point{
	{Policy: sim.Conventional, Disks: 4, Lambda: 1e-4, HEP: 0.01},
	{Policy: sim.AutoFailover, Disks: 4, Lambda: 1e-4, HEP: 0.01},
	{Policy: sim.DualParity, Disks: 6, Lambda: 1e-4, HEP: 0.01},
}

type serveMix struct {
	cfg      config
	f        *fleet
	pool     *shard.Pool
	srv      *serve.Server
	ts       *httptest.Server
	client   *http.Client
	warm     [][]byte // request bodies of the warm set
	warmFP   []string
	warmRecs []runRecord // exact counts of the warm fill; see warmCounts
	book     *summaryBook
	rng      *rand.Rand // request choice
	nextMiss int        // miss seeds continue across phases
}

func newServeMix(cfg config) workload {
	return &serveMix{cfg: cfg, book: newSummaryBook(), rng: rand.New(rand.NewSource(int64(cfg.seed)))}
}

// request builds the body of a /v1/run request; i picks the array
// configuration and, with the workload seed, the run seed.
func (m *serveMix) request(i int) (body []byte, p sim.ArrayParams, o sim.Options, err error) {
	pt := serveConfigs[i%len(serveConfigs)]
	p = pt.params()
	wire, err := shard.EncodeParams(p)
	if err != nil {
		return nil, p, o, err
	}
	o = sim.Options{Iterations: serveMissIters, MissionTime: serveMission, Seed: splitmix(m.cfg.seed, i)}
	body, err = json.Marshal(serve.RunRequest{
		Params:  wire,
		Options: serve.RunOptions{Iterations: o.Iterations, MissionTime: o.MissionTime, Seed: o.Seed},
	})
	return body, p, o, err
}

// post sends one /v1/run request and decodes a 200 response.
func (m *serveMix) post(body []byte) (int, serve.RunResponse, error) {
	var rr serve.RunResponse
	resp, err := m.client.Post(m.ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, rr, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, rr, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, rr, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp.StatusCode, rr, json.Unmarshal(b, &rr)
}

// setup spawns the workers, builds the pool and the server with
// availserve's defaults, fills the warm set and reads it back once.
func (m *serveMix) setup() error {
	var err error
	if m.f, err = spawnFleet(m.cfg.procs); err != nil {
		return err
	}
	if m.pool, err = shard.NewPool(m.f.workers, nil, io.Discard); err != nil {
		return err
	}
	if m.srv, err = serve.NewServer(serve.Config{Pool: m.pool}); err != nil {
		return err
	}
	m.ts = httptest.NewServer(m.srv)
	m.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: m.cfg.procs, MaxIdleConnsPerHost: m.cfg.procs},
		Timeout:   serveTimeout,
	}
	var sums [][]byte
	for i := 0; i < serveWarm; i++ {
		body, _, _, err := m.request(i)
		if err != nil {
			return err
		}
		_, rr, err := m.post(body)
		if err != nil {
			return fmt.Errorf("fill warm set: %w", err)
		}
		if rr.Cached {
			return fmt.Errorf("fill warm set: fingerprint %s already cached", rr.Fingerprint)
		}
		if err := m.book.check(rr.Fingerprint, rr.Summary); err != nil {
			return err
		}
		m.warm, m.warmFP = append(m.warm, body), append(m.warmFP, rr.Fingerprint)
		sums = append(sums, rr.Summary)
	}
	if m.warmRecs, err = m.warmCounts(sums); err != nil {
		return err
	}
	for i, body := range m.warm {
		_, rr, err := m.post(body)
		if err != nil {
			return fmt.Errorf("read warm set: %w", err)
		}
		if !rr.Cached || rr.Fingerprint != m.warmFP[i] {
			return fmt.Errorf("read warm set: entry %d not served from cache", i)
		}
	}
	m.nextMiss = serveWarm
	return nil
}

// warmCounts derives the exact counts of the warm fill from its
// summaries and from the jobs its runs put on the worker pipes, which
// are all the jobs the pool has run so far.
func (m *serveMix) warmCounts(sums [][]byte) ([]runRecord, error) {
	recs := make([]runRecord, len(sums))
	entry := make(map[uint64]int)
	for i, b := range sums {
		var sum sim.Summary
		if err := json.Unmarshal(b, &sum); err != nil {
			return nil, fmt.Errorf("warm entry %d: %w", i, err)
		}
		recs[i] = runRecord{summary: string(b), iters: sum.Iterations, events: incidents(sum.Events), cells: len(sim.Cells(sum.Iterations))}
		entry[splitmix(m.cfg.seed, i)] = i
	}
	for _, j := range m.f.log.since(0) {
		i, ok := entry[j.Seed]
		if !ok || j.Reply != shard.MsgResult {
			return nil, fmt.Errorf("warm fill: job %d (seed %d) ended with %q", j.ID, j.Seed, j.Reply)
		}
		recs[i].keptJobs++
		recs[i].keptBytes += j.Bytes
		recs[i].keptMsgs += j.Msgs
	}
	return recs, nil
}

// setupCounts reports the warm fill's exact counts; every set-up of a
// run must repeat them.
func (m *serveMix) setupCounts() []runRecord { return m.warmRecs }

// sent is one request of a round.
type sent struct {
	hit         bool
	idx         int // warm index (hit) or request index (miss)
	body        []byte
	start, done time.Time
	gap         time.Duration // from the loop's previous response to this request
	status      int
	resp        serve.RunResponse
	err         error
	span        open
	p           sim.ArrayParams
	o           sim.Options
}

// batch draws a round's requests from the workload's seeded stream.
func (m *serveMix) batch() ([]*sent, error) {
	b := make([]*sent, serveBatch)
	for i := range b {
		s := &sent{hit: m.rng.Float64() < serveHitShare}
		if s.hit {
			s.idx = m.rng.Intn(len(m.warm))
			s.body = m.warm[s.idx]
		} else {
			s.idx = m.nextMiss
			m.nextMiss++
			var err error
			if s.body, s.p, s.o, err = m.request(s.idx); err != nil {
				return nil, err
			}
		}
		b[i] = s
	}
	return b, nil
}

// drive sends a round from nproc closed loops: each loop sends the
// round's next unsent request as soon as its previous one returned.
func (m *serveMix) drive(tr *tracer, round int, batch []*sent) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < m.cfg.procs; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			prev := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				s := batch[i]
				name := "http.miss"
				if s.hit {
					name = "http.hit"
				}
				s.start = time.Now()
				s.gap = s.start.Sub(prev)
				s.span = tr.begin(name, 0, int64(round*serveBatch+i), lane)
				s.status, s.resp, s.err = m.post(s.body)
				s.done = time.Now()
				s.span.endAt(s.done)
				prev = s.done
			}
		}(serveLaneLoop + c)
	}
	wg.Wait()
}

func (m *serveMix) measure(tr *tracer, budget time.Duration) (*phase, error) {
	ph := &phase{}
	before := m.srv.CacheStats()
	mark := m.f.log.mark()
	start := time.Now()
	var misses []*sent // kept for a traced phase's layers; hits are checked and dropped
	var gaps []float64
	var wall time.Duration
	rejected := 0
	var hitTails, missTails []float64
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		batch, err := m.batch()
		if err != nil {
			return nil, err
		}
		rspan := tr.begin("serve.round", 0, int64(round), serveLaneRound)
		t0 := time.Now()
		m.drive(tr, round, batch)
		var hitMs, missMs []float64
		var last time.Time
		for _, s := range batch {
			ph.attempted++
			gaps = append(gaps, millis(s.gap))
			if s.done.After(last) {
				last = s.done
			}
			if s.err != nil {
				ph.failed++
				if s.status == http.StatusTooManyRequests {
					rejected++
				}
				continue
			}
			ms := millis(s.done.Sub(s.start))
			if s.hit {
				hitMs = append(hitMs, ms)
			} else {
				missMs = append(missMs, ms)
			}
		}
		rspan.endAt(last)
		ph.makespan = append(ph.makespan, last.Sub(t0).Seconds())
		wall += last.Sub(t0)
		ph.light, ph.heavy = append(ph.light, hitMs...), append(ph.heavy, missMs...)
		if beyond(len(hitMs), serveHitTail) >= minBeyond && beyond(len(missMs), serveMissTail) >= minBeyond {
			hitTails = append(hitTails, percentile(hitMs, serveHitTail))
			missTails = append(missTails, percentile(missMs, serveMissTail))
		}
		m.check(ph, batch)
		if tr == nil {
			m.f.log.forget() // nothing reads an untraced phase's jobs
			continue
		}
		for _, s := range batch {
			if !s.hit {
				misses = append(misses, s)
			}
		}
	}
	if len(hitTails) == 0 {
		return nil, fmt.Errorf("no round of %d requests had %d samples beyond its tails", serveBatch, minBeyond)
	}
	ph.lightTail, ph.heavyTail = median(hitTails), median(missTails)
	ph.headline = median(ph.makespan)
	if n := m.f.log.malformed(); n > 0 {
		ph.wrong("%d shard protocol lines did not parse", n)
	}
	if tr != nil {
		ph.layer = m.layers(tr, misses, mark, before, m.srv.CacheStats(), wall, gaps, rejected)
	}
	return ph, nil
}

// check applies serve_mix's correctness rules to a round: a hit reports
// cached=true and a miss cached=false; a hit carries the same summary
// bytes as the warm fill's response for its fingerprint; and a miss,
// the first response for its fingerprint, carries a summary
// bit-identical to the same run executed in-process. It then drops the
// round's bodies, which nothing else reads, so that the run's memory
// does not grow with its length.
func (m *serveMix) check(ph *phase, batch []*sent) {
	for _, s := range batch {
		if s.err != nil {
			continue
		}
		rr := s.resp
		if s.hit {
			if !rr.Cached || rr.Fingerprint != m.warmFP[s.idx] {
				ph.wrong("hit on warm entry %d: cached=%v fingerprint %s", s.idx, rr.Cached, rr.Fingerprint)
			}
			if err := m.book.check(rr.Fingerprint, rr.Summary); err != nil {
				ph.wrong("%v", err)
			}
			continue
		}
		if rr.Cached {
			ph.wrong("miss %d (fingerprint %s) reported cached=true", s.idx, rr.Fingerprint)
		}
		if err := sameAsInProcess(s.p, s.o, rr.Summary); err != nil {
			ph.wrong("miss %d: %v", s.idx, err)
		}
	}
	for _, s := range batch {
		s.body, s.resp, s.p = nil, serve.RunResponse{}, sim.ArrayParams{}
	}
}

// sameAsInProcess reruns a served run in-process and compares summary
// bytes: sharded and single-process results must be bit-identical.
func sameAsInProcess(p sim.ArrayParams, o sim.Options, summary []byte) error {
	k, err := sim.ResolveKernel(p, o.Kernel)
	if err != nil {
		return err
	}
	o.Kernel = k
	s, err := sim.Run(p, o)
	if err != nil {
		return err
	}
	want, err := json.Marshal(s)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, summary) {
		return fmt.Errorf("served summary %s differs from in-process %s", summary, want)
	}
	return nil
}

// layers derives the serve and shard metrics of a traced phase from
// request spans, cache counters and the job/reply pairs seen on the
// worker pipes, matched to misses by run seed. The exact counts come
// from the warm fill of the measured set-up, which every set-up of the
// run repeats, so a failed miss cannot move them.
func (m *serveMix) layers(tr *tracer, misses []*sent, mark wireMark, before, after serve.CacheStats, wall time.Duration, gaps []float64, rejected int) map[string]float64 {
	bySeed := make(map[uint64]*sent)
	for _, s := range misses {
		bySeed[s.o.Seed] = s
	}
	t := tallyJobs(tr, m.f.log.since(mark), serveLaneJob, func(j jobRecord) (*sent, open, bool) {
		s := bySeed[j.Seed]
		if s == nil {
			return nil, open{}, false
		}
		return s, s.span, true
	})
	var shardMs, selfMs []float64
	var keptIters, computedIters, cancelled, failures float64
	for s, js := range t.jobs {
		for _, j := range js {
			switch j.Reply {
			case shard.MsgResult:
				computedIters += float64(j.iters())
			case shard.MsgCancelled:
				cancelled++
			case shard.MsgError:
				failures++
			}
		}
		if s.err != nil {
			continue
		}
		keptIters += float64(s.o.Iterations)
		sp := t.spans[s]
		lo, hi := sp[0].Start, sp[0].End
		for _, j := range sp[1:] {
			lo, hi = min(lo, j.Start), max(hi, j.End)
		}
		shardMs = append(shardMs, millis(hi-lo))
		selfMs = append(selfMs, millis(s.done.Sub(s.start)-(hi-lo)))
	}
	exact, n := sumRecords(m.warmRecs)
	runs := float64(len(misses))
	hits, lookups := after.Hits-before.Hits, (after.Hits-before.Hits)+(after.Misses-before.Misses)
	return map[string]float64{
		"sim.events_per_iter":        float64(exact.events) / float64(exact.iters),
		"sim.cells":                  float64(exact.cells) / n,
		"shard.job_rtt_ms.p50":       median(t.rtt),
		"shard.job_rtt_ms.p99":       percentile(t.rtt, 0.99),
		"shard.worker_busy_ratio":    t.busy.Seconds() / (wall.Seconds() * float64(len(m.f.workers))),
		"shard.useful_iter_ratio":    keptIters / computedIters,
		"shard.wire_bytes_per_kiter": float64(exact.keptBytes) / (float64(exact.iters) / 1e3),
		"shard.messages_per_run":     float64(exact.keptMsgs) / n,
		"shard.jobs_per_run":         float64(exact.keptJobs) / n,
		"shard.cancelled_jobs":       cancelled / runs,
		"shard.worker_failures":      failures,
		"serve.cache_hit_ratio":      float64(hits) / float64(lookups),
		"serve.miss_shard_ms.p50":    median(shardMs),
		"serve.miss_self_ms.p50":     median(selfMs),
		"serve.rejected":             float64(rejected),
		"gen.gap_ms.p99":             percentile(gaps, 0.99),
	}
}

func (m *serveMix) peakRSSKB() (int64, error) {
	self, err := peakRSS("self")
	if err != nil {
		return 0, err
	}
	w, err := m.f.peakRSSKB()
	return self + w, err
}

func (m *serveMix) close() error {
	if m.ts != nil {
		m.ts.Close()
	}
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
	if m.srv != nil {
		m.srv.Drain()
	}
	var err error
	if m.pool != nil {
		err = m.pool.Close()
	}
	if m.f != nil {
		if ferr := m.f.close(); err == nil {
			err = ferr
		}
	}
	return err
}
