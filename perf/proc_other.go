//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

// The harness reads CPU time and peak RSS from Linux's /proc. These
// stubs keep `go build ./...` working elsewhere; the benchmark itself
// refuses to run.

var errNeedsLinux = errors.New("perf: needs Linux /proc")

func procCPU(int) (cpuTimes, error)  { return cpuTimes{}, errNeedsLinux }
func selfCPU() (cpuTimes, error)     { return cpuTimes{}, errNeedsLinux }
func rssPeakMB(int) (float64, error) { return 0, errNeedsLinux }
func dieWithParent(*exec.Cmd)        {}
