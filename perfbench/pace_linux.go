//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// precisePacing prepares the calling goroutine to pace an open loop. Go's
// timers can wake a sleeper up to a millisecond late, which an open loop
// would charge to every query it issues; so the goroutine keeps one OS
// thread to itself, whose timer slack is lowered to 1 ns, and sleepUntil
// sleeps that thread in nanosleep, which wakes within tens of
// microseconds. The goroutine never unlocks the thread: when it exits,
// the thread ends with it.
func precisePacing() {
	runtime.LockOSThread()
	// If prctl fails the sleeps are only less precise.
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil returns at t or just after.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// A signal ends the sleep early (EINTR); the loop sleeps again.
		syscall.Nanosleep(&ts, nil)
	}
}
