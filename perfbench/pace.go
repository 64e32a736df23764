package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer holds a generator until each scheduled send time.
//
// time.Sleep is too coarse: when the process is idle the runtime waits
// for a sub-millisecond timer in a 1 ms epoll timeout, so it oversleeps by
// about a millisecond. nanosleep on a locked OS thread oversleeps by the
// kernel's timer slack (tens of microseconds), and worse, the sleeping
// thread keeps its P: on a 2-core machine two sleeping generators hold
// every P, and the server's ready goroutines wait for the runtime's
// monitor thread to take one back, which adds milliseconds of tail.
//
// The pacer arms a non-blocking timerfd and reads it through an os.File,
// so the generator parks in the runtime's network poller like any other
// goroutine waiting on I/O — its P stays free — and the poller wakes it
// when the kernel timer expires. A wake-up before the scheduled time is
// finished by spinning, so no request is ever sent early.
type pacer struct {
	f   *os.File
	fd  uintptr // f's descriptor; f.Fd() would switch f to blocking reads
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (p *pacer) close() error { return p.f.Close() }

// waitUntil returns at t, or at once when t has passed.
func (p *pacer) waitUntil(t time.Time) error {
	if d := time.Until(t); d > 0 {
		// struct itimerspec { it_interval, it_value }: one-shot, relative.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		if _, err := p.f.Read(p.buf[:]); err != nil {
			return fmt.Errorf("timerfd read: %w", err)
		}
	}
	for time.Now().Before(t) {
	}
	return nil
}
