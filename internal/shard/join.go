package shard

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"herald/internal/xrand"
)

const (
	defaultRetryBase = 500 * time.Millisecond
	defaultRetryMax  = 30 * time.Second
)

// joinBackoff produces the reconnect delay ladder of JoinLoop: capped
// exponential growth with deterministic jitter. Every delay is the
// nominal base<<attempt (capped at max) scaled into [1/2, 1) by the
// next draw of a seeded xrand stream, so two workers with different
// seeds never fall into dial lockstep, while a test replaying the same
// seed sees the identical sequence.
type joinBackoff struct {
	base, max time.Duration
	attempt   int
	src       *xrand.Source
}

func newJoinBackoff(base, max time.Duration, seed uint64) *joinBackoff {
	if base <= 0 {
		base = defaultRetryBase
	}
	if max < base {
		max = defaultRetryMax
		if max < base {
			max = base
		}
	}
	return &joinBackoff{base: base, max: max, src: xrand.New(seed)}
}

// next returns the delay before the upcoming reconnect attempt and
// advances the ladder.
func (b *joinBackoff) next() time.Duration {
	d := b.base
	for i := 0; i < b.attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.attempt++
	// Jitter into [d/2, d): the draw is consumed even at the cap so the
	// sequence stays a pure function of (seed, attempt index).
	return d/2 + time.Duration(b.src.Float64()*float64(d/2))
}

// reset drops the ladder back to the base delay after a healthy
// session (one whose handshake completed).
func (b *joinBackoff) reset() { b.attempt = 0 }

// JoinLoop supervises join: it dials the coordinator, serves shard
// jobs, and — when the session dies of a transport or handshake error
// (connection refused, mid-frame cut, stalled peer tripping the read
// deadline, auth rejection) — reconnects with capped exponential
// backoff and deterministic jitter (NetConfig.Retry*). A clean
// coordinator close (EOF between frames: the coordinator finished and
// closed the link) ends the loop with nil, as does the end of ctx
// (after the graceful drain join describes); every other outcome is
// retried forever, so a worker box outlives coordinator restarts and
// network partitions. A session that got past
// the handshake resets the backoff ladder, so a long-healthy worker
// redials quickly after a one-off drop instead of paying the
// accumulated penalty.
//
// logw (nil = discard) receives one line per failed session and per
// reconnect delay.
func JoinLoop(ctx context.Context, addr string, capacity int, nc NetConfig, logw io.Writer) error {
	if logw == nil {
		logw = io.Discard
	}
	seed := nc.RetrySeed
	if seed == 0 {
		// Derive from the process identity: workers on one box (or
		// respawns of the same worker) land on distinct streams.
		seed = uint64(os.Getpid())*1e9 + uint64(time.Now().UnixNano()&0xffffffff)
	}
	backoff := newJoinBackoff(nc.RetryBase, nc.RetryMax, seed)
	for {
		joined, err := joinOnce(ctx, addr, capacity, nc)
		if ctx.Err() != nil {
			return nil
		}
		if err == nil {
			if joined {
				return nil // clean coordinator close
			}
			// Defensive: joinOnce never returns (false, nil) today, but a
			// sessionless nil must not be mistaken for a clean close.
			err = fmt.Errorf("shard: join %s: session ended before handshake", addr)
		}
		if joined {
			backoff.reset()
		}
		d := backoff.next()
		fmt.Fprintf(logw, "shard: join %s: %v; reconnecting in %s\n", addr, err, d.Round(time.Millisecond))
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(d):
		}
	}
}
