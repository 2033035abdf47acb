package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of /proc/<pid>/stat's utime and stime. Linux
// fixes it at 100 for user space whatever the kernel's own tick is.
const userHZ = 100

// procCPU reads another process's CPU time from /proc/<pid>/stat.
func procCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name is in parentheses and may hold spaces; fields
	// are counted from the closing one. utime and stime are fields 14
	// and 15, so 12 and 13 after the ")" and the state.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("perf: malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("perf: malformed /proc/%d/stat", pid)
	}
	tick := time.Second / userHZ
	return cpuTimes{time.Duration(ut) * tick, time.Duration(st) * tick}, nil
}

// selfCPU is this process's CPU time, to the microsecond.
func selfCPU() (cpuTimes, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())}, nil
}

// rssPeakMB is a process's resident-set high-water mark (VmHWM).
func rssPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("perf: no VmHWM in /proc/%d/status", pid)
}

// dieWithParent has the kernel kill the child when the harness dies,
// however it dies.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
