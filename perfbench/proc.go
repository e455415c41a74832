package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// service is one running opsched-serve process. Its stdout (the sealed
// report) is collected in memory; the tail of its stderr (slog lines) is
// kept for error messages.
type service struct {
	cmd   *exec.Cmd
	start time.Time

	stdout bytes.Buffer
	outErr chan error // stdout copy result

	errMu   sync.Mutex
	errTail []string
	errDone chan struct{}
}

// launch starts bin with args. ctx bounds the process's life: cancelling
// it kills the process.
func launch(ctx context.Context, bin string, args []string) (*service, error) {
	s := &service{outErr: make(chan error, 1), errDone: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, bin, args...)
	s.cmd.Stdin = nil // /dev/null: a terminal-like stdin, never read as a trace
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_, err := io.Copy(&s.stdout, stdout)
		s.outErr <- err
	}()
	go s.scanStderr(stderr)
	return s, nil
}

func (s *service) scanStderr(r io.Reader) {
	defer close(s.errDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		s.errMu.Lock()
		if len(s.errTail) == 20 {
			s.errTail = s.errTail[1:]
		}
		s.errTail = append(s.errTail, sc.Text())
		s.errMu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r) // an over-long line: keep the pipe drained
}

// exit is a finished service run.
type exit struct {
	report string
	wall   time.Duration // launch to exit, the sealed report fully read
	cpu    time.Duration
	rssMB  float64
}

// wait collects the process: its sealed report, wall time, CPU and peak
// RSS. A non-zero exit is an error carrying the stderr tail.
func (s *service) wait() (exit, error) {
	outErr := <-s.outErr
	<-s.errDone
	err := s.cmd.Wait()
	end := time.Now()
	if err == nil {
		err = outErr
	}
	if err != nil {
		s.errMu.Lock()
		tail := strings.Join(s.errTail, "\n")
		s.errMu.Unlock()
		return exit{}, fmt.Errorf("opsched-serve %s: %w\n%s", strings.Join(s.cmd.Args[1:], " "), err, tail)
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return exit{}, fmt.Errorf("no rusage for opsched-serve")
	}
	return exit{
		report: s.stdout.String(),
		wall:   end.Sub(s.start),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

// runService launches bin with args and waits for it to exit.
func runService(ctx context.Context, bin string, args []string) (exit, error) {
	s, err := launch(ctx, bin, args)
	if err != nil {
		return exit{}, err
	}
	return s.wait()
}

func writeFile(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write input: %w", err)
	}
	return nil
}
