package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running xicd process and every client that talked to it.
type server struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error
	clients []*client
	stopped bool
}

// startServer starts xicd on a free loopback port with default flags and
// waits until it answers /healthz.
func startServer(bin string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr)
	// xicd must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start xicd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	probe := s.newClient()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("xicd exited during start: %v: %s", s.waitErr, logs.String())
		default:
		}
		if status, _, _, err := probe.do("", "GET", "/healthz", nil); err == nil && status == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("xicd did not become ready within 20s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if it
// does not drain in time.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
	select {
	case <-s.exited:
		return fmt.Errorf("xicd exited early: %v", s.waitErr)
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("xicd did not stop on SIGTERM")
	}
}

// client is one keep-alive connection to xicd, counting what it sent and
// what came back so the totals can be checked against /debug/vars.
type client struct {
	hc     *http.Client
	base   string
	sent   map[string]int
	status map[int]int
}

func (s *server) newClient() *client {
	c := &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		base:   s.base,
		sent:   map[string]int{},
		status: map[int]int{},
	}
	s.clients = append(s.clients, c)
	return c
}

// do sends one request and reads the whole response body; the duration
// runs from sending the request to reading the last byte. endpoint is
// xicd's counter name for the route ("" for uncounted routes).
func (c *client) do(endpoint, method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if endpoint != "" {
		c.sent[endpoint]++
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, nil, 0, err
	}
	if endpoint != "" {
		c.status[resp.StatusCode]++
	}
	return resp.StatusCode, data, d, nil
}

// sample is one answered request: its latency and its request body's
// size.
type sample struct {
	ms    float64
	bytes int
}

// recorder collects one client's samples, counts and failures.
type recorder struct {
	t0        time.Time
	lat       map[string][]sample // by request class
	attempted int
	failed    int
	errs      []string
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0, lat: map[string][]sample{}} }

// ok records an answered request; requests answered during the warm-up,
// before t0, are checked but not recorded.
func (r *recorder) ok(class string, d time.Duration, bodyBytes int) {
	if time.Now().Before(r.t0) {
		return
	}
	r.lat[class] = append(r.lat[class], sample{ms: float64(d) / float64(time.Millisecond), bytes: bodyBytes})
}

// samples gathers the samples of the given classes.
func (r *recorder) samples(classes ...string) []sample {
	var out []sample
	for _, c := range classes {
		out = append(out, r.lat[c]...)
	}
	return out
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 100 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func merge(recs []*recorder) *recorder {
	out := newRecorder(recs[0].t0)
	for _, r := range recs {
		for k, v := range r.lat {
			out.lat[k] = append(out.lat[k], v...)
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
	}
	return out
}

// drive runs the warm-up and the timed phase: one goroutine per client,
// each in a closed loop until the deadline.
func (s *server) drive(w workload, dur time.Duration) []*recorder {
	recs := make([]*recorder, clients)
	cls := make([]*client, clients)
	t0 := time.Now().Add(warmup)
	for c := range recs {
		recs[c], cls[c] = newRecorder(t0), s.newClient()
	}
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for c := range recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.loop(c, cls[c], deadline, recs[c])
		}(c)
	}
	wg.Wait()
	return recs
}

// debugVars is the part of /debug/vars the benchmark reads.
type debugVars struct {
	RequestsTotal     map[string]int `json:"requests_total"`
	ResponsesByStatus map[string]int `json:"responses_by_status"`
	Cache             struct {
		Tiers map[string]struct {
			Hits      int `json:"hits"`
			Misses    int `json:"misses"`
			Evictions int `json:"evictions"`
		} `json:"tiers"`
	} `json:"cache"`
	ImplCache struct {
		Hits   int `json:"hits"`
		Misses int `json:"misses"`
	} `json:"impl_cache"`
	Sessions struct {
		EvictionsLRU int `json:"evictions_lru"`
		EvictionsTTL int `json:"evictions_ttl"`
	} `json:"sessions"`
}

func (s *server) vars() (*debugVars, error) {
	status, body, _, err := s.newClient().do("", "GET", "/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: status %d", status)
	}
	var v debugVars
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return &v, nil
}

// checkVars cross-checks xicd's request and status counters against what
// the clients sent and received; any mismatch is a failure.
func (r *recorder) checkVars(s *server, v *debugVars) {
	sent, status := map[string]int{}, map[string]int{}
	for _, c := range s.clients {
		for k, n := range c.sent {
			sent[k] += n
		}
		for k, n := range c.status {
			status[strconv.Itoa(k)] += n
		}
	}
	same := func(what string, mine, theirs map[string]int) {
		for k := range theirs {
			if _, ok := mine[k]; !ok {
				mine[k] = 0
			}
		}
		for k, n := range mine {
			if theirs[k] != n {
				r.fail("/debug/vars %s[%s] = %d, clients counted %d", what, k, theirs[k], n)
			}
		}
	}
	same("requests_total", sent, v.RequestsTotal)
	same("responses_by_status", status, v.ResponsesByStatus)
}

// peakRSS is xicd's VmHWM in MB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// floor times sequential GET /healthz round trips, in microseconds: the
// serving floor under which no request can go.
func (s *server) floor() []float64 {
	c := s.newClient()
	var out []float64
	for i := 0; i < 2000; i++ {
		status, _, d, err := c.do("", "GET", "/healthz", nil)
		if err == nil && status == http.StatusOK {
			out = append(out, float64(d)/float64(time.Microsecond))
		}
	}
	return out
}
