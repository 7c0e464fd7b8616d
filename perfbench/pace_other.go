//go:build !linux

package main

import "time"

// precisePacing does nothing where nanosleep pacing is not implemented;
// sleeps there are as precise as Go's timers.
func precisePacing() {}

// sleepUntil returns at t or after.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
