package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"cloudviews/internal/server"
)

// The http-serve load generator runs in a process of its own: the same
// binary, started with loadgenEnv set. Its pacer, connections and garbage
// collector then share nothing with the server under test but the machine's
// CPUs, so its lateness says something about the generator alone, and the
// server runs with its runtime settings untouched. The server process sends
// one phase per line of the generator's standard input and reads one reply
// per line of its standard output; the generator exits when its input
// closes.
const loadgenEnv = "CVBENCH_LOADGEN"

// lgTemplate is what the generator needs to submit a template's jobs.
type lgTemplate struct {
	VC       string `json:"vc"`
	Pipeline string `json:"pipeline"`
	Script   string `json:"script"`
}

// lgPhase asks for n requests at rate to the server at URL; job numbers
// start at First and submit times advance one second per hundred jobs from
// Base (Unix seconds).
type lgPhase struct {
	URL       string       `json:"url"`
	Rate      float64      `json:"rate"`
	N         int          `json:"n"`
	First     int          `json:"first"`
	Base      int64        `json:"base"`
	Templates []lgTemplate `json:"templates"`
}

// lgOp is one request the generator sent. Start and End are Unix
// nanoseconds, for the traced run's spans.
type lgOp struct {
	Kind   string  `json:"kind"`
	ID     string  `json:"id"`
	K      int     `json:"k"`
	Err    string  `json:"err,omitempty"`
	Reused int     `json:"reused"`
	Work   float64 `json:"work"`
	LatMS  float64 `json:"lat_ms"`
	LateMS float64 `json:"late_ms"`
	Start  int64   `json:"start"`
	End    int64   `json:"end"`
	// reply is a submission's raw reply until decode runs.
	reply []byte
}

// lgReply is the outcome of one phase. CPUSec is the generator's own CPU
// time during the phase.
type lgReply struct {
	Ops    []lgOp  `json:"ops"`
	WallNS int64   `json:"wall_ns"`
	CPUSec float64 `json:"cpu_sec"`
}

// scheduled is one operation of a phase's schedule: i numbers the
// submissions and explain reads; scrapes have i = -1.
type scheduled struct {
	due  time.Duration
	kind string
	i    int
}

// schedule lays out a phase: n submissions and explain reads at rate, every
// explainEvery-th an explain read, plus a /metrics scrape every
// scrapeInterval of the phase, half an interval in.
func schedule(rate float64, n int) []scheduled {
	ops := make([]scheduled, 0, n+2)
	for i := 0; i < n; i++ {
		kind := "post"
		if i%explainEvery == explainEvery-1 {
			kind = "explain"
		}
		ops = append(ops, scheduled{due: time.Duration(float64(i) / rate * 1e9), kind: kind, i: i})
	}
	length := time.Duration(float64(n) / rate * 1e9)
	for t := scrapeInterval / 2; t < length; t += scrapeInterval {
		ops = append(ops, scheduled{due: t, kind: "metrics", i: -1})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// generator is the load generator's state across phases.
type generator struct {
	url    string
	client *http.Client
	// lastID is the most recently finished submission, the target of the
	// next explain read; "" before the first.
	mu             sync.Mutex
	lastID, lastVC string
}

// loadgenMain serves phases from in until it closes.
func loadgenMain(in io.Reader, out io.Writer) int {
	dec := json.NewDecoder(bufio.NewReader(in))
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	g := &generator{}
	for {
		var ph lgPhase
		if err := dec.Decode(&ph); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintf(os.Stderr, "cvbench load generator: %v\n", err)
			return 1
		}
		if ph.URL != g.url {
			if g.client != nil {
				g.client.CloseIdleConnections()
			}
			g.url = ph.URL
			g.client = &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     submitters(),
				MaxIdleConnsPerHost: submitters(),
				DisableCompression:  true,
			}}
			g.lastID = ""
		}
		if err := enc.Encode(g.run(ph)); err != nil {
			return 1
		}
		if err := w.Flush(); err != nil {
			return 1
		}
	}
}

// run offers one phase's schedule. A request that finds every connection
// busy waits in the queue, and that wait counts in its latency.
func (g *generator) run(ph lgPhase) lgReply {
	sched := schedule(ph.Rate, ph.N)
	ops := make([]lgOp, len(sched))
	// Sized to the number of sends, so the pacer never blocks.
	queue := make(chan int, len(sched))
	cpu0 := cpuSeconds()
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < submitters(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				due := start.Add(sched[j].due)
				op := g.do(ph, sched[j])
				op.LateMS = ops[j].LateMS
				op.LatMS = float64(time.Since(due).Nanoseconds()) / 1e6
				ops[j] = op
			}
		}()
	}
	pacerThread()
	for j, s := range sched {
		due := start.Add(s.due)
		sleepUntil(due)
		ops[j].LateMS = float64(time.Since(due).Nanoseconds()) / 1e6
		queue <- j
	}
	pacerRelease()
	close(queue)
	wg.Wait()
	reply := lgReply{Ops: ops, WallNS: time.Since(start).Nanoseconds(), CPUSec: cpuSeconds() - cpu0}
	for j := range reply.Ops {
		if op := &reply.Ops[j]; op.Kind == "post" && op.Err == "" {
			op.decode()
		}
	}
	return reply
}

// do sends one request and reads its reply.
func (g *generator) do(ph lgPhase, s scheduled) lgOp {
	op := lgOp{Kind: s.kind}
	var body io.Reader
	var path, vc string
	switch s.kind {
	case "post":
		k := ph.First + s.i
		t := ph.Templates[k%len(ph.Templates)]
		b, err := json.Marshal(server.SubmitRequest{
			ID: fmt.Sprintf("srv-%d", k), Pipeline: t.Pipeline, Script: t.Script,
			SubmitUnix: ph.Base + int64(k/100),
		})
		if err != nil {
			panic(err) // a SubmitRequest always encodes
		}
		op.ID, op.K, vc, path, body = fmt.Sprintf("srv-%d", k), k%len(ph.Templates), t.VC, "/v1/jobs", bytes.NewReader(b)
	case "explain":
		g.mu.Lock()
		id, v := g.lastID, g.lastVC
		g.mu.Unlock()
		if id == "" {
			return op
		}
		op.ID, vc, path = id, v, "/v1/jobs/"+id+"/explain"
	default:
		vc, path = ph.Templates[0].VC, "/metrics"
	}
	method := http.MethodGet
	if body != nil {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, g.url+path, body)
	if err != nil {
		op.Err = err.Error()
		return op
	}
	req.Header.Set("Authorization", "Bearer "+vcToken(vc))
	op.Start = time.Now().UnixNano()
	resp, err := g.client.Do(req)
	var raw []byte
	if err == nil {
		// Only a submission's reply is kept; reads are drained without
		// allocating.
		if s.kind == "post" || resp.StatusCode != http.StatusOK {
			raw, err = io.ReadAll(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
	}
	op.End = time.Now().UnixNano()
	switch {
	case err != nil:
		op.Err = fmt.Sprintf("%s %s: %v", s.kind, op.ID, err)
	case resp.StatusCode != http.StatusOK:
		op.Err = fmt.Sprintf("%s %s: status %d: %s", s.kind, op.ID, resp.StatusCode, clip(string(raw)))
	case s.kind == "post":
		// The reply is decoded after the phase.
		op.reply = raw
		g.mu.Lock()
		g.lastID, g.lastVC = op.ID, vc
		g.mu.Unlock()
	}
	return op
}

// decode reads a submission's reply: views reused and work.
func (op *lgOp) decode() {
	var st server.JobStatusResponse
	if err := json.Unmarshal(op.reply, &st); err != nil || st.Result == nil {
		op.Err = fmt.Sprintf("post %s: bad reply %q", op.ID, clip(string(op.reply)))
		return
	}
	op.Reused, op.Work, op.reply = st.Result.ViewsReused, st.Result.Work, nil
}

// loadgen is the server process's handle on the generator process.
type loadgen struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

// startLoadgen starts the generator process.
func startLoadgen() (*loadgen, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), loadgenEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return &loadgen{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(bufio.NewReader(stdout))}, nil
}

// run has the generator offer one phase and returns its reply.
func (g *loadgen) run(ph lgPhase) (*lgReply, error) {
	if err := g.enc.Encode(ph); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var reply lgReply
	if err := g.dec.Decode(&reply); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return &reply, nil
}

// stop closes the generator's input and waits for it to exit, killing it
// if it has not exited within ten seconds.
func (g *loadgen) stop() error {
	g.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- g.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		g.cmd.Process.Kill()
		<-done
		return errors.New("load generator did not exit; killed")
	}
}
