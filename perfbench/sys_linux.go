package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks the calling thread until t. time.Sleep rounds short
// sleeps up to about a millisecond when the process is otherwise idle,
// which would make the open loop late by more than a served request
// takes; a nanosleep with the thread's timer slack cut to 1 ns wakes
// within a few microseconds.
func sleepUntil(t time.Time) {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// childAttr makes a child process die with the benchmark, even when the
// benchmark is killed before its deferred cleanup runs.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
