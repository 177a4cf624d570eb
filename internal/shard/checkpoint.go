package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"

	"herald/internal/sim"
)

// The checkpoint is a newline-delimited JSON log. Line one is a header
// binding the file to a run fingerprint (parameters, options, shard
// partition); each following line records one completed shard with its
// cell partials. Appending is the only write mode during a run, so a
// crash can at worst tear the final line — the loader drops an
// unparsable or invalid tail and the torn shard is simply recomputed.
// On resume the surviving records are compacted into a fresh file
// first, so the log never accretes torn garbage between lines.

type checkpointHeader struct {
	Type        string `json:"type"` // "header"
	Fingerprint string `json:"fingerprint"`
	Iterations  int    `json:"iterations"`
	Seed        uint64 `json:"seed"`
	Shards      int    `json:"shards"`
}

type checkpointRecord struct {
	Type     string        `json:"type"` // "shard"
	ID       int           `json:"id"`
	Partials []sim.Partial `json:"partials"`
}

// fingerprint binds a checkpoint to one exact run configuration: the
// wire-encoded parameters, the result-affecting options, and the
// shard partition, hashed with FNV-1a over their canonical JSON behind
// a domain label. Schedule-only knobs (Workers) are excluded — results
// are partition-independent, so a run may resume on a box with a
// different worker count. The label changes whenever the same
// configuration may produce different partials: v2 came with the
// table-driven memoryless walker, so a checkpoint of an earlier
// realization is refused instead of merged.
func fingerprint(p WireParams, o sim.Options, shards int) string {
	o.Workers = 0
	h := fnv.New64a()
	_, _ = io.WriteString(h, "herald-checkpoint-v2\n")
	enc := json.NewEncoder(h)
	_ = enc.Encode(p)
	_ = enc.Encode(o)
	_ = enc.Encode(shards)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkpoint is an open append-mode checkpoint log.
type checkpoint struct {
	f   *os.File
	enc *json.Encoder
}

// record appends one completed shard and flushes it to disk.
func (c *checkpoint) record(id int, parts []sim.Partial) error {
	if c == nil {
		return nil
	}
	if err := c.enc.Encode(checkpointRecord{Type: "shard", ID: id, Partials: parts}); err != nil {
		return fmt.Errorf("shard: checkpoint write: %w", err)
	}
	return c.f.Sync()
}

func (c *checkpoint) close() error {
	if c == nil {
		return nil
	}
	return c.f.Close()
}

// tilesRange reports whether parts exactly tile [start, end) and were
// produced under the given seed and mission time: the validity test
// for worker results and checkpointed shards.
func tilesRange(parts []sim.Partial, start, end int, seed uint64, mission float64) bool {
	if len(parts) == 0 {
		return false
	}
	sorted := append([]sim.Partial(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	cursor := start
	for i := range sorted {
		pt := &sorted[i]
		if pt.Start != cursor || pt.End <= pt.Start || pt.Seed != seed || pt.MissionTime != mission {
			return false
		}
		if pt.Avail.N() != int64(pt.End-pt.Start) {
			return false
		}
		cursor = pt.End
	}
	return cursor == end
}

// loadCheckpoint reads an existing checkpoint file, returning the
// completed shards that validate against the current run (fingerprint,
// shard ranges, observation counts). Torn or invalid trailing data is
// dropped with a warning to logw. A fingerprint mismatch is an error:
// the file belongs to a different run and must not be silently
// clobbered.
func loadCheckpoint(path, fp string, shards []sim.Range, seed uint64, mission float64, logw io.Writer) (map[int][]sim.Partial, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	done := make(map[int][]sim.Partial)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), maxFrameBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if line == 1 {
			var h checkpointHeader
			if err := json.Unmarshal(raw, &h); err != nil || h.Type != "header" {
				return nil, fmt.Errorf("shard: checkpoint %s: malformed header", path)
			}
			if h.Fingerprint != fp {
				return nil, fmt.Errorf("shard: checkpoint %s belongs to a different run (fingerprint %s, want %s)",
					path, h.Fingerprint, fp)
			}
			continue
		}
		var rec checkpointRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.Type != "shard" {
			// A torn tail from a crash mid-append: everything before it
			// is intact, so stop here and recompute the rest.
			fmt.Fprintf(logw, "shard: checkpoint %s: dropping torn record at line %d\n", path, line)
			break
		}
		if rec.ID < 0 || rec.ID >= len(shards) {
			fmt.Fprintf(logw, "shard: checkpoint %s: dropping record for unknown shard %d\n", path, rec.ID)
			continue
		}
		r := shards[rec.ID]
		if !tilesRange(rec.Partials, r.Start, r.End, seed, mission) {
			fmt.Fprintf(logw, "shard: checkpoint %s: dropping invalid record for shard %d\n", path, rec.ID)
			continue
		}
		if _, dup := done[rec.ID]; dup {
			continue
		}
		done[rec.ID] = rec.Partials
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("shard: checkpoint %s: %w", path, err)
	}
	if line == 0 {
		return nil, fmt.Errorf("shard: checkpoint %s: empty file", path)
	}
	return done, nil
}

// openCheckpoint prepares the checkpoint at path for a run: loading
// completed shards from an existing file (after validating its
// fingerprint) and compacting the survivors into a fresh log, or
// creating a new log when none exists. It returns the completed
// shards and the open append handle.
func openCheckpoint(path, fp string, shards []sim.Range, seed uint64, mission float64, logw io.Writer) (map[int][]sim.Partial, *checkpoint, error) {
	var done map[int][]sim.Partial
	if _, err := os.Stat(path); err == nil {
		done, err = loadCheckpoint(path, fp, shards, seed, mission, logw)
		if err != nil {
			return nil, nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}

	// Rewrite the log from the validated records (write-temp + rename),
	// so a previous torn tail never corrupts subsequent appends.
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, nil, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(checkpointHeader{
		Type: "header", Fingerprint: fp, Iterations: shardsEnd(shards), Seed: seed, Shards: len(shards),
	}); err != nil {
		f.Close()
		return nil, nil, err
	}
	ids := make([]int, 0, len(done))
	for id := range done {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := enc.Encode(checkpointRecord{Type: "shard", ID: id, Partials: done[id]}); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, err
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return done, &checkpoint{f: af, enc: json.NewEncoder(af)}, nil
}

// shardsEnd returns the end of the last shard (the run's iteration
// count).
func shardsEnd(shards []sim.Range) int {
	if len(shards) == 0 {
		return 0
	}
	return shards[len(shards)-1].End
}
