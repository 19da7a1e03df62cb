//go:build !linux

package main

import "time"

func pacerThread()  {}
func pacerRelease() {}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// cpuSeconds is the runtime's estimate of the CPU time the process used.
func cpuSeconds() float64 { return readRuntime().busyCPU }
