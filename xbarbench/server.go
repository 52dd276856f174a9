package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/dataset"
	"xbarsec/internal/service"
)

// Server flags: fixed and explicit, so a later commit's defaults cannot
// change what is measured. The victim settings are mirrored by
// victimSpec, which trains the identical victim in-process for the
// query-batch gate.
const (
	serverSeed    = 1
	serverTrainN  = 600
	serverTestN   = 200
	serverEpochs  = 30
	serverWorkers = 2
	serverJobs    = 2
	// sessionBudget is large enough that no run exhausts it.
	sessionBudget = 100_000_000
)

func serverArgs(stateDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-victims", "mnist,cifar10",
		"-seed", strconv.Itoa(serverSeed),
		"-train-n", strconv.Itoa(serverTrainN),
		"-test-n", strconv.Itoa(serverTestN),
		"-epochs", strconv.Itoa(serverEpochs),
		"-budget", strconv.Itoa(sessionBudget),
		"-workers", strconv.Itoa(serverWorkers),
		"-jobs", strconv.Itoa(serverJobs),
		"-data-dir", stateDir,
		"-journal-fsync=true",
	}
}

// victimSpec is the server's mnist victim, trained in-process.
func victimSpec() service.VictimSpec {
	return service.VictimSpec{
		Name: "mnist", Kind: dataset.MNIST, Seed: serverSeed,
		TrainN: serverTrainN, TestN: serverTestN, Epochs: serverEpochs,
	}
}

// server is one running xbarserve child process.
type server struct {
	cmd      *exec.Cmd
	url      string
	stateDir string
	ctl      *client.Client // control-plane client (health, stats)

	logMu sync.Mutex
	log   bytes.Buffer
	// exited is closed once stderr is drained and cmd.Wait returned
	// waitErr.
	exited  chan struct{}
	waitErr error
}

// bootServer starts xbarserve on a fresh state directory and returns
// once /healthz answers, with the time from spawn to that answer.
func bootServer(ctx context.Context, bin, stateDir string) (*server, time.Duration, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(filepath.Dir(stateDir), 0o755); err != nil {
		return nil, 0, err
	}
	s := &server{stateDir: stateDir, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, serverArgs(stateDir)...)
	// The server must not outlive a load generator that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	addrCh := make(chan string, 1)
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting xbarserve: %w", err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.logMu.Lock()
			s.log.WriteString(line + "\n")
			s.logMu.Unlock()
			if addr, ok := strings.CutPrefix(line, "xbarserve: listening on "); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-s.exited:
		return nil, 0, fmt.Errorf("xbarserve exited during boot (%v):\n%s", s.waitErr, s.logs())
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, 0, fmt.Errorf("xbarserve did not listen within 120s:\n%s", s.logs())
	case <-ctx.Done():
		s.kill()
		return nil, 0, ctx.Err()
	}
	s.url = "http://" + addr
	s.ctl, err = client.New(s.url, client.WithHTTPClient(&http.Client{Timeout: 30 * time.Second}))
	if err != nil {
		s.kill()
		return nil, 0, err
	}
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := s.ctl.Health(hctx)
		cancel()
		if err == nil {
			break
		}
		if time.Since(start) > 120*time.Second || ctx.Err() != nil {
			s.kill()
			return nil, 0, fmt.Errorf("xbarserve /healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(start), nil
}

func (s *server) logs() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.log.String()
}

// stats snapshots /v2/stats.
func (s *server) stats(ctx context.Context) (api.Stats, error) {
	st, err := s.ctl.Stats(ctx)
	if err != nil {
		return st, fmt.Errorf("snapshotting /v2/stats: %w", err)
	}
	return st, nil
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop sends SIGTERM and requires a clean exit within 20 s, then removes
// the state directory.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signalling xbarserve: %w", err)
	}
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return fmt.Errorf("xbarserve exited uncleanly after SIGTERM (%v):\n%s", s.waitErr, s.logs())
		}
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("xbarserve did not exit within 20s of SIGTERM")
	}
	return os.RemoveAll(s.stateDir)
}

// kill force-stops the server and waits for it; used on error paths and
// safe to call after stop.
func (s *server) kill() {
	if s == nil {
		return
	}
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Kill() // it may exit on its own meanwhile
		<-s.exited
	}
	_ = os.RemoveAll(s.stateDir) // best effort on the error path
}
