package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer dispatches requests k = 0, 1, ... at due times start + k/rate.
type pacer struct {
	start time.Time
	rate  float64
	// wait blocks until the given time or a little after it.
	wait func(time.Time) error
}

func (p pacer) due(k int64) time.Time {
	return p.start.Add(time.Duration(float64(k) * float64(time.Second) / p.rate))
}

// run calls fn(k, due) for k = 0 .. n-1, each no earlier than its due time,
// and returns how many it dispatched. A dispatcher that wakes late sends the
// requests it owes back to back; their latency still counts from their due
// time. It stops early only if wait fails.
func (p pacer) run(n int64, fn func(k int64, due time.Time)) int64 {
	for k := int64(0); k < n; k++ {
		due := p.due(k)
		if time.Now().Before(due) {
			if err := p.wait(due); err != nil {
				return k
			}
		}
		fn(k, due)
	}
	return n
}

// timerClock wakes a goroutine at a precise time through a Linux timerfd
// read by the runtime's network poller. The runtime's own timers fire up to
// a millisecond late, which would swamp a sub-millisecond latency limit;
// a timerfd wakes within tens of microseconds without holding a thread.
type timerClock struct {
	f   *os.File
	buf [8]byte
}

func newTimerClock() (*timerClock, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timerClock{f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil blocks until t. The read returns once the timer has expired.
func (c *timerClock) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, c.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := c.f.Read(c.buf[:])
	return err
}

func (c *timerClock) Close() error { return c.f.Close() }
