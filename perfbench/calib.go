package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Reference speed. The VM the benchmark was sized on changes speed by up to
// half within minutes and by tens of percent within seconds (README, sizing
// notes): far more than the bounds allow, and by about the same factor for
// the program and for unrelated work that allocates, chases pointers and
// branches. So every run also times a fixed reference task that shares no
// code with the program, interleaved with the timed work, and reports its
// times scaled to the reference speed: t × refNominal / (the run's reference
// median). The task runs in a child process, so the program's heap cannot
// slow it, and only while no timed request runs.

// refNominal is the reference task's median on the reference VM.
const refNominal = 45 * time.Millisecond

type refNode struct {
	l, r *refNode
	v    int
}

func refTree(depth int) *refNode {
	if depth == 0 {
		return &refNode{v: 1}
	}
	return &refNode{l: refTree(depth - 1), r: refTree(depth - 1), v: depth}
}

func (n *refNode) sum() int {
	if n == nil {
		return 0
	}
	return n.v + n.l.sum() + n.r.sum()
}

// refWork is one goroutine's share of the reference task: build and walk
// three trees of small objects, then fill a map and sort a slice.
func refWork(seed uint64) int {
	acc := 0
	for k := 0; k < 3; k++ {
		acc += refTree(15).sum()
	}
	r := rand.New(rand.NewPCG(seed, 9))
	m := make(map[int]int)
	xs := make([]int, 100000)
	for i := range xs {
		xs[i] = r.IntN(1 << 30)
		m[xs[i]&0xffff] += i
	}
	sort.Ints(xs)
	return acc + len(m) + xs[0]
}

// refTask runs refWork on n goroutines at once, as the program's sweeps use
// n workers, and returns its wall time.
func refTask(n int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = refWork(uint64(g))
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}

// serveReference is the child process's side: for every line read from in,
// time the reference task once and write the seconds as a line to out.
func serveReference(n int, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if _, err := fmt.Fprintln(out, refTask(n).Seconds()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// reference is a running child process that times the reference task on
// request, and the timings it has returned.
type reference struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	samples []float64 // seconds
}

// startReference starts the child: this binary with -reference workers.
func startReference(workers int) (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-reference", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference task: %w", err)
	}
	return &reference{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// sample times the reference task n times, one after another.
func (r *reference) sample(n int) error {
	for i := 0; i < n; i++ {
		if _, err := io.WriteString(r.in, "\n"); err != nil {
			return fmt.Errorf("reference task: %w", err)
		}
		if !r.out.Scan() {
			return fmt.Errorf("reference task: no timing (%v)", r.out.Err())
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(r.out.Text()), 64)
		if err != nil {
			return fmt.Errorf("reference task: %w", err)
		}
		r.samples = append(r.samples, x)
	}
	return nil
}

// stop ends the child and waits for it to exit.
func (r *reference) stop() error {
	r.in.Close()
	return r.cmd.Wait()
}
