package main

import (
	"net"
	"testing"

	"waveindex/internal/server"
	"waveindex/wave"
)

// TestRunAgainstInProcessServer drives the load generator against a real
// waved server on a loopback listener.
func TestRunAgainstInProcessServer(t *testing.T) {
	idx, err := wave.New(wave.Config{Window: 5, Indexes: 2, Scheme: wave.REINDEXPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewBackend(idx, server.Options{})
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()

	if err := run(l.Addr().String(), 8, 20, 30, 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	// A second run resumes from the server's window instead of failing on
	// non-consecutive days.
	if err := run(l.Addr().String(), 3, 20, 10, 1); err != nil {
		t.Fatalf("second run: %v", err)
	}
}

func TestRunBadAddress(t *testing.T) {
	if err := run("127.0.0.1:1", 1, 1, 1, 1); err == nil {
		t.Error("connecting to a closed port succeeded")
	}
}
