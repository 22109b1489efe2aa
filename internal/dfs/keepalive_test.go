package dfs_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"aurora/internal/dfs/client"
)

// openFDs lists this process's open file descriptors with what they
// refer to, or returns nil where /proc is unavailable.
func openFDs() []string {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	fds := make([]string, 0, len(ents))
	for _, e := range ents {
		target, err := os.Readlink("/proc/self/fd/" + e.Name())
		if err != nil {
			continue // the directory read's own descriptor, now closed
		}
		fds = append(fds, e.Name()+" -> "+target)
	}
	return fds
}

// Kept-alive connections end with the cluster: once a cluster that
// served reads, writes and heartbeats over reused connections has
// closed, the process is back to the goroutines and file descriptors it
// had before, so a following set-up starts clean.
func TestClusterCloseLeavesNoKeptAliveConns(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	tc := startCluster(t, 4, 2, nil)
	c := client.New(tc.nn.Addr(), client.WithBlockSize(1<<12), client.WithSeed(3))
	for i := range 4 {
		path := fmt.Sprint("/keepalive/", i)
		data := payload(2*(1<<12)+17*i, byte(i))
		if err := c.Create(path, data, 0); err != nil {
			t.Fatalf("Create %s: %v", path, err)
		}
		for range 3 {
			got, err := c.Read(path)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Read %s: %v", path, err)
			}
		}
	}
	tc.close()

	deadline := time.Now().Add(3 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs()
		if g <= goroutines && len(f) <= len(fds) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines (was %d), open fds %v (was %v)", g, goroutines, f, fds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
