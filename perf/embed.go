package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// runEmbedded measures an embedded workload in children of the
// harness, so that CPU time and peak RSS are the library's and its two
// callers' alone. Like the daemon, the library is booted sizes.Setups
// times: the earlier children only set up, the last one runs.
func runEmbedded(env *environment, w *workloadSpec, seed int64, seconds float64) (*runResult, error) {
	var res *runResult
	var setupS, trans []float64
	boots := env.sizes.Setups
	for i := 0; i < boots; i++ {
		args := childArgs{Seed: seed, Sizes: env.sizes}
		args.Sizes.Setups = 1 // each child boots once
		if i == boots-1 {
			args.Seconds = seconds
		}
		r, err := runChild(env, w, args)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, r.SetupS...)
		trans = append(trans, r.SetupAddDayMS...)
		env.logf("%s: set-up %d/%d %.3f s", w.name, i+1, boots, r.SetupS[0])
		res = r
	}
	res.SetupS, res.SetupAddDayMS = setupS, trans
	return res, nil
}

// runChild re-executes this binary as the embed_probe child and reads
// the runResult it prints.
func runChild(env *environment, w *workloadSpec, args childArgs) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(args)
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(env.out, "child-"+w.name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	var stdout bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stdout, cmd.Stderr = &stdout, logf
	c, err := startChild(cmd)
	if err != nil {
		return nil, err
	}
	if err := c.wait(); err != nil {
		return nil, fmt.Errorf("%s child: %w (log: %s)", w.name, err, logf.Name())
	}
	res := &runResult{}
	if err := json.Unmarshal(stdout.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s child's result: %w", w.name, err)
	}
	return res, nil
}

// childMain is the embed_probe child: one boot of the library, and the
// run unless the parent asked for set-up only. Its set-up time runs
// from building the router to the window being ready; the data is
// generated before, as it is for the daemon.
func childMain() int {
	var args childArgs
	if err := json.Unmarshal([]byte(os.Getenv(childEnv)), &args); err != nil {
		fmt.Fprintln(os.Stderr, "perf child:", err)
		return 2
	}
	env := &environment{
		sizes: args.Sizes,
		logf:  func(format string, a ...any) { fmt.Fprintf(os.Stderr, "perf child: "+format+"\n", a...) },
	}
	res, err := runWorkload(env, workloadByName("embed_probe"), args.Seed, args.Seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf child:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perf child:", err)
		return 2
	}
	return 0
}
