// Package leakcheck is the goroutine-leak guard that test packages run
// from their TestMain: a goroutine a test leaves behind (a stuck memo
// waiter, an unstopped timer loop, an unclosed server) fails the
// package instead of surviving into the next one.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long goroutines get to wind down after the last test.
const settle = 3 * time.Second

// Main runs m's tests and exits with their status. A passing run fails
// when, within settle, the goroutine count does not return to what it
// was before the first test; the failure prints every goroutine's
// stack.
func Main(m *testing.M) {
	base, _ := goroutines()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(settle)
		n, stacks := goroutines()
		for n > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n, stacks = goroutines()
		}
		if n > base {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines %v after the tests, %d before:\n%s\n", n, settle, base, stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// goroutines counts the live goroutines and returns their stacks. It
// leaves out os/signal's loop, which the first signal.Notify starts for
// the life of the process (the fuzzing engine's, for one).
func goroutines() (int, []byte) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("os/signal.loop")) {
			n++
		}
	}
	return n, buf
}
