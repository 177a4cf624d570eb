package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"
)

// endlessLine is a reader yielding n bytes of one unterminated line,
// counting what the transport pulls from it.
type endlessLine struct {
	n, read int
}

func (r *endlessLine) Read(p []byte) (int, error) {
	if r.read >= r.n {
		return 0, io.EOF
	}
	k := min(len(p), r.n-r.read)
	for i := range p[:k] {
		p[i] = 'x'
	}
	r.read += k
	return k, nil
}

// TestRecvRejectsOversizedFrame feeds Recv more than maxFrameBytes
// with no newline: it must fail with the frame-size error, not EOF,
// having read no more than the cap plus one read buffer.
func TestRecvRejectsOversizedFrame(t *testing.T) {
	src := &endlessLine{n: maxFrameBytes + 1<<20}
	tr := NewTransport(struct {
		io.Reader
		io.Writer
	}{src, io.Discard})
	_, err := tr.Recv()
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Recv over an oversized frame returned %v, want the frame-size error", err)
	}
	if !strings.Contains(err.Error(), "frame exceeds") {
		t.Errorf("error %q does not name the frame limit", err)
	}
	if limit := maxFrameBytes + 64<<10; src.read > limit {
		t.Errorf("Recv read %d bytes before rejecting the frame, want at most %d", src.read, limit)
	}
}

// TestRecvReassemblesLongFrames pins the framing around the read
// buffer: a frame longer than the buffer decodes intact, the frame
// after it is not disturbed, a frame cut by EOF is ErrUnexpectedEOF,
// and EOF between frames is a clean io.EOF.
func TestRecvReassemblesLongFrames(t *testing.T) {
	var wire bytes.Buffer
	send := NewTransport(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), &wire})
	long := strings.Repeat("y", 3*frameReadBuffer)
	for _, m := range []*Message{{Type: MsgError, Error: long}, {Type: MsgPing}} {
		if err := send.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	recv := NewTransport(struct {
		io.Reader
		io.Writer
	}{&wire, io.Discard})
	if m, err := recv.Recv(); err != nil || m.Type != MsgError || m.Error != long {
		t.Fatalf("long frame: err %v", err)
	}
	if m, err := recv.Recv(); err != nil || m.Type != MsgPing {
		t.Fatalf("frame after the long one: %+v, %v", m, err)
	}
	if _, err := recv.Recv(); err != io.EOF {
		t.Fatalf("EOF between frames: %v, want io.EOF", err)
	}
	cut := NewTransport(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(`{"type":"pi`), io.Discard})
	if _, err := cut.Recv(); err != io.ErrUnexpectedEOF {
		t.Fatalf("EOF inside a frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestListenerDropsOversizedHello sends a registration listener an
// unterminated frame larger than maxFrameBytes in place of the hello.
// The listener must drop that connection and still accept a
// well-formed joiner afterwards.
func TestListenerDropsOversizedHello(t *testing.T) {
	nc := NetConfig{Token: "frame-cap"}
	var logbuf syncBuffer
	ln, source, err := ListenWorkers("127.0.0.1:0", nc, &logbuf)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("z"), 1<<20)
	for sent := 0; sent < maxFrameBytes+1<<20; sent += len(chunk) {
		if _, err := bad.Write(chunk); err != nil {
			break // the listener gave up on the frame and closed the link
		}
	}
	// The listener hung up: after its hello, the read ends in EOF or a
	// reset, not in a stall.
	_ = bad.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.Copy(io.Discard, bad); err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("oversized peer was not disconnected: %v", err)
	}
	bad.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joinErr := make(chan error, 1)
	go func() { joinErr <- join(ctx, addr, 1, nc) }()
	select {
	case w := <-source:
		w.Close()
	case <-time.After(30 * time.Second):
		t.Fatal("listener accepted no joiner after the oversized frame")
	}
	select {
	case err := <-joinErr:
		if err != nil {
			t.Errorf("join after coordinator close returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("join did not return after the coordinator closed")
	}
	if log := logbuf.String(); !strings.Contains(log, "rejected worker") || !strings.Contains(log, "frame exceeds") {
		t.Errorf("listener log does not record the oversized frame:\n%s", log)
	}
}
