package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdWaiter waits on a Linux timer file descriptor.  The read
// parks the goroutine in the network poller, which the kernel wakes
// within tens of microseconds of the deadline, where time.Sleep can
// overshoot by a whole millisecond: at thousands of requests per
// second that overshoot would be most of the latency measured.
type timerfdWaiter struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

// itimerspec mirrors struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1

func (wallClock) newWaiter() waiter {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return sleepWaiter{}
	}
	return &timerfdWaiter{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (w *timerfdWaiter) wait(until time.Time) {
	d := time.Until(until)
	if d <= 0 {
		return
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	if _, err := w.f.Read(w.buf[:]); err != nil {
		sleepWaiter{}.wait(until)
	}
}

func (w *timerfdWaiter) close() { w.f.Close() }
