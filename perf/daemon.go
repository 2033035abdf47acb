package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"waveindex/internal/server"
)

// child is a process the harness started and must stop.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

// children holds every live child so that any exit path, and a signal,
// can stop them all.
var children = struct {
	sync.Mutex
	m map[*child]struct{}
}{m: map[*child]struct{}{}}

// startChild starts cmd so that it dies with the harness. The kernel
// delivers the parent-death signal when the *thread* that forked the
// child exits, so the goroutine that starts it stays locked to its
// thread until the child has ended.
func startChild(cmd *exec.Cmd) (*child, error) {
	c := &child{cmd: cmd, done: make(chan struct{})}
	dieWithParent(cmd)
	started := make(chan error)
	go func() {
		runtime.LockOSThread()
		err := cmd.Start()
		started <- err
		if err != nil {
			return
		}
		c.err = cmd.Wait()
		close(c.done)
	}()
	if err := <-started; err != nil {
		return nil, err
	}
	children.Lock()
	children.m[c] = struct{}{}
	children.Unlock()
	return c, nil
}

// kill stops the child and returns once it has ended.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.wait()
}

func (c *child) wait() error {
	<-c.done
	children.Lock()
	delete(children.m, c)
	children.Unlock()
	return c.err
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func killChildren() {
	children.Lock()
	cs := make([]*child, 0, len(children.m))
	for c := range children.m {
		cs = append(cs, c)
	}
	children.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// killChildrenOnSignal stops every child and exits when the harness is
// interrupted or terminated.
func killChildrenOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		killChildren()
		fmt.Fprintf(os.Stderr, "perf: %v: children stopped\n", s)
		os.Exit(1)
	}()
}

// buildWaved compiles the daemon into dir. The go tool relinks only
// when a source changed, so calling it on every run costs a fraction
// of a second and can never measure a stale binary.
func buildWaved(dir string) (string, error) {
	bin := filepath.Join(dir, "waved")
	cmd := exec.Command("go", "build", "-o", bin, "waveindex/cmd/waved")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building waved: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr picks a loopback port nobody is bound to. Another process
// can take it before the daemon binds; startDaemon retries then.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is one waved child at its own defaults plus -shards and the
// workload's cache sizes: RAM store, no journal, REINDEX, W=7, n=4.
type daemon struct {
	*child
	addr string
}

func daemonArgs(w *workloadSpec, addr string) []string {
	args := []string{"-addr", addr, "-shards", strconv.Itoa(numShards)}
	if w.cacheBlocks > 0 {
		args = append(args, "-cache-blocks", strconv.Itoa(w.cacheBlocks))
	}
	if w.cacheResults > 0 {
		args = append(args, "-cache-results", strconv.Itoa(w.cacheResults))
	}
	return args
}

// startDaemon runs waved on a free port and returns once it accepts
// connections. Its log goes to logPath.
func startDaemon(bin string, w *workloadSpec, logPath string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, daemonArgs(w, addr)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		c, err := startChild(cmd)
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, err
		}
		d := &daemon{child: c, addr: addr}
		if lastErr = d.awaitListening(); lastErr == nil {
			return d, nil
		}
		d.kill()
	}
	return nil, fmt.Errorf("waved did not come up: %w (log: %s)", lastErr, logPath)
}

func (d *daemon) awaitListening() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		if d.exited() {
			return fmt.Errorf("waved exited: %v", d.err)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) dial() (*server.Client, error) { return server.Dial(d.addr) }

func (d *daemon) pid() int { return d.cmd.Process.Pid }
