//go:build !linux

package main

import (
	"syscall"
	"time"
)

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func childAttr() *syscall.SysProcAttr { return nil }
