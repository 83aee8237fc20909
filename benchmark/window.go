package main

import (
	"sync/atomic"
	"time"
)

// window is the closed-loop load generator's flow control: W tokens, one
// per client with a packet in flight. The single generator goroutine takes
// a token before every send; the delivery callback gives it back. There is
// no sleeping and no spinning on the send path: an empty window blocks on
// the token channel, and one reused watchdog timer bounds that wait so a
// packet the system lost cannot wedge the run.
type window struct {
	tokens    chan struct{}
	watchdog  *time.Timer
	lostAfter time.Duration
	lost      atomic.Uint64 // tokens written off by the watchdog
}

func newWindow(w int, lostAfter time.Duration) *window {
	win := &window{
		tokens:    make(chan struct{}, w), // counting semaphore: W clients
		lostAfter: lostAfter,
	}
	// The watchdog writes off the oldest outstanding packet and re-mints
	// its token, so the loop keeps its W clients.
	win.watchdog = time.AfterFunc(time.Hour, func() {
		win.lost.Add(1)
		win.give()
	})
	win.watchdog.Stop()
	for i := 0; i < w; i++ {
		win.tokens <- struct{}{}
	}
	return win
}

// take blocks until a token is free; only the generator goroutine calls it.
func (w *window) take() {
	select {
	case <-w.tokens:
		return
	default:
	}
	w.watchdog.Reset(w.lostAfter)
	<-w.tokens
	w.watchdog.Stop()
}

// give returns a token. Safe from any goroutine; never blocks (a token
// returning after it was written off finds the window full and is dropped).
func (w *window) give() {
	select {
	case w.tokens <- struct{}{}:
	default:
	}
}

// drain collects every outstanding token after the last send. Once the
// watchdog has fired — lostAfter of silence with nothing being sent — no
// later token is coming either, so the rest are written off at once.
func (w *window) drain() {
	for left := cap(w.tokens); left > 0; left-- {
		before := w.lost.Load()
		w.take()
		if w.lost.Load() != before {
			w.lost.Add(uint64(left - 1))
			return
		}
	}
}
