package main

import (
	"runtime"
	"syscall"
	"time"
)

// pacerThread pins the open-loop pacer to its own OS thread, so sleepUntil
// can block in nanosleep. time.Sleep on an idle Go runtime rounds short
// sleeps up to the netpoller's one-millisecond resolution, which at the
// latency phase's rate would make the generator, not the server, late.
func pacerThread() { runtime.LockOSThread() }

func pacerRelease() { runtime.UnlockOSThread() }

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// cpuSeconds is the process's user and system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return readRuntime().busyCPU
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
