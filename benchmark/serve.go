package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/readsim"
	"repro/internal/serve"
)

// serveClients is the number of closed-loop clients, each on its own
// connection.
const serveClients = 2

// pollEvery is how long a client sleeps between two status polls.
const pollEvery = 2 * time.Millisecond

// jobClass is one kind of job in the served mix.
type jobClass struct {
	Name  string
	Query string
	Data  *dataset
	Body  []byte
	Ref   *runStats      // direct assembly of the same reads
	Rep   quality.Report // of Ref's contigs against the class's genome
}

// serveCycle is the fixed sequence every client repeats: three
// interactive-lane jobs, then one batch-lane job. A self-adjusting mix
// (interactive jobs until the client's batch job ends) was measured to
// vary 13-17% in p50 and rejected; an order shuffled per client and cycle
// was no steadier than the fixed one.
var serveCycle = []int{0, 0, 0, 1}

// tuneServed is the configuration serve.Server.jobConfig builds for a
// lmin=63&workers=1 job on the default 1xK40 server: the reference the
// served FASTA, modeled time and counters are held to.
func tuneServed(c *core.Config) {
	c.Workers = 1
	c.GPU.MemBytes = c.DeviceDemandBytes(readsim.HChr14.ReadLen)
	c.Resume = true
}

// jobTiming is one served job seen from the client.
type jobTiming struct {
	Class   int
	ID      string
	Latency time.Duration // first byte of the POST -> last byte of the FASTA
	Submit  time.Duration
	Fetch   time.Duration
	Polls   int
	Record  serve.Record
	Err     error
}

// serveClient issues jobs one after another over one connection.
type serveClient struct {
	base    string
	http    *http.Client
	classes []jobClass
	tr      *tracer
	errs    int // non-2xx answers and transport errors
}

// do sends one request and returns the body of a 2xx answer.
func (c *serveClient) do(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.errs++
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.errs++
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		c.errs++
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// runJob submits one job of the class, polls it to a terminal state and
// fetches its FASTA, checking every answer.
func (c *serveClient) runJob(class int) (jt jobTiming) {
	cl := c.classes[class]
	jt.Class = class
	start := time.Now()
	data, err := c.do("POST", c.base+"/v1/jobs?"+cl.Query, cl.Body)
	submitted := time.Now()
	jt.Submit = submitted.Sub(start)
	if err == nil {
		err = json.Unmarshal(data, &jt.Record)
	}
	if err != nil {
		jt.Err = err
		return jt
	}
	jt.ID = jt.Record.ID
	job := c.tr.add(0, "job", cl.Name, start, start, jt.ID)
	c.tr.add(job, "request", "submit", start, submitted, jt.ID)
	for !jt.Record.State.Terminal() {
		time.Sleep(pollEvery)
		pollStart := time.Now()
		data, err := c.do("GET", c.base+"/v1/jobs/"+jt.ID, nil)
		if err == nil {
			err = json.Unmarshal(data, &jt.Record)
		}
		if err != nil {
			jt.Err = err
			return jt
		}
		jt.Polls++
		c.tr.add(job, "request", "poll", pollStart, time.Now(), jt.ID)
	}
	if jt.Record.State != serve.StateSucceeded {
		jt.Err = fmt.Errorf("job %s ended %s: %s", jt.ID, jt.Record.State, jt.Record.Error)
		return jt
	}
	fetchStart := time.Now()
	fasta, err := c.do("GET", c.base+"/v1/jobs/"+jt.ID+"/result", nil)
	end := time.Now()
	jt.Fetch, jt.Latency = end.Sub(fetchStart), end.Sub(start)
	c.tr.add(job, "request", "fetch", fetchStart, end, jt.ID)
	c.tr.end(job, end)
	switch {
	case err != nil:
		jt.Err = err
	case !bytes.Equal(fasta, cl.Ref.Fasta):
		jt.Err = fmt.Errorf("job %s: served FASTA differs from the direct assembly of the same reads", jt.ID)
	case jt.Record.Result == nil || jt.Record.Result.ModeledMillis != cl.Ref.Modeled.Milliseconds():
		jt.Err = fmt.Errorf("job %s: served modeled time differs from the direct assembly's %v", jt.ID, cl.Ref.Modeled)
	}
	return jt
}

// runServe is the serve_jobs workload: an in-process server with the
// lasagna-serve binary's defaults behind a loopback listener, one warm-up
// cycle, then serveClients closed-loop clients repeating serveCycle for
// -seconds. Clients stop at cycle ends, so every run measures the same mix.
func (r *runner) runServe(w workload) (*workloadResult, error) {
	res := &workloadResult{Name: w.Name, Metrics: map[string]float64{}}
	dir, err := r.newWorkspace("in")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	classes := []jobClass{
		{Name: "interactive", Query: "lmin=63&workers=1&priority=interactive"},
		{Name: "batch", Query: "lmin=63&workers=1&priority=batch"},
	}
	genSec, err := r.setupInputs(func() error {
		for i, factor := range []float64{0.25, 1} {
			ds, err := r.generate(dir, readsim.HChr14, factor)
			if err != nil {
				return err
			}
			classes[i].Data = ds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if r.trace {
		tr = &tracer{}
	}
	setupSec := genSec
	for i := range classes {
		cl := &classes[i]
		if cl.Body, err = os.ReadFile(cl.Data.Fastq); err != nil {
			return nil, err
		}
		if cl.Ref, _, err = r.assemble(cl.Data.Fastq, tuneServed); err != nil {
			return nil, fmt.Errorf("reference assembly of %s: %w", cl.Name, err)
		}
		setupSec += cl.Ref.Wall.Seconds()
		if cl.Rep = evaluate(cl.Data.Genome, cl.Ref.Contigs); cl.Rep.MisassembledContigs > 0 {
			res.Failures = append(res.Failures,
				fmt.Sprintf("%s: %d contigs align nowhere in the genome", cl.Name, cl.Rep.MisassembledContigs))
		}
	}
	misassembled := len(res.Failures) > 0

	root, err := r.newWorkspace("serve")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	// The binary's defaults: 1xK40, -max-jobs 2, -queue-cap 16,
	// -flight-recorder 4096, info-level text logging.
	srv, err := serve.New(serve.Config{
		Root: root, GPU: gpu.K40, Devices: 1, MaxConcurrent: 2, QueueCap: 16,
		HostBlockPairs: 1 << 20, DeviceBlockPairs: 1 << 16, FlightRecorderEvents: 4096,
		Obs: obs.New(obs.NewLogger(io.Discard, slog.LevelInfo, false), nil, obs.NewRegistry()),
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(r.log, "draining server:", err)
		}
	}()
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		transport := &http.Transport{MaxConnsPerHost: 1}
		defer transport.CloseIdleConnections()
		clients[i] = &serveClient{base: ts.URL, http: &http.Client{Transport: transport}, classes: classes}
	}
	for _, class := range serveCycle {
		if jt := clients[0].runJob(class); jt.Err != nil {
			return nil, fmt.Errorf("warm-up: %w", jt.Err)
		}
	}

	var (
		mu   sync.Mutex
		jobs []jobTiming
		wg   sync.WaitGroup
	)
	// A client's rate is over its own cycles: the last one to finish runs
	// its tail alone, and that idle capacity is not the server's.
	rates := make([]float64, len(clients))
	start := time.Now()
	for i, c := range clients {
		c.tr = tr
		wg.Add(1)
		go func(i int, c *serveClient) {
			defer wg.Done()
			done := 0
			for cycle := 0; r.moreCycles(cycle, time.Since(start).Seconds()); cycle++ {
				for _, class := range serveCycle {
					jt := c.runJob(class)
					mu.Lock()
					jobs = append(jobs, jt)
					mu.Unlock()
					done++
				}
			}
			rates[i] = float64(done) / time.Since(start).Seconds()
		}(i, c)
	}
	wg.Wait()
	var jobsPerSec float64
	for _, rate := range rates {
		jobsPerSec += rate
	}

	lat := make([][]float64, len(classes))
	httpErrors := 0
	for _, c := range clients {
		httpErrors += c.errs
	}
	for _, jt := range jobs {
		res.Attempted++
		switch {
		case jt.Err != nil:
			// A failed job counts as missing every latency figure.
			res.fail(1, "%v", jt.Err)
			continue
		case misassembled:
			res.Failed++
		}
		lat[jt.Class] = append(lat[jt.Class], jt.Latency.Seconds())
	}
	if len(lat[0]) == 0 || len(lat[1]) == 0 {
		return res, nil
	}
	res.Samples = lat[0]

	if !r.trace {
		// One cycle's worth of the counters serve.Record does not carry,
		// from the direct assemblies the served output was held equal to.
		var modeled float64
		var disk, bases, peak int64
		for _, class := range serveCycle {
			ref := classes[class].Ref
			modeled += ref.Modeled.Seconds()
			disk += ref.Counters.DiskReadBytes + ref.Counters.DiskWriteBytes
			bases += classes[class].Data.Bases
			peak = max(peak, ref.graphHostPeak())
		}
		rep := classes[1].Rep // the batch input's
		res.Metrics["setup_s"] = setupSec
		res.Metrics["wall_s"] = median(lat[0])
		res.Metrics["jobs_per_s"] = jobsPerSec
		res.Metrics["modeled_s"] = modeled
		res.Metrics["disk_bytes_per_base"] = float64(disk) / float64(bases)
		res.Metrics["graph_host_peak_mib"] = mib(peak)
		res.Metrics["genome_coverage_frac"] = rep.CoverageFraction()
		res.Metrics["n50_bp"] = float64(rep.N50)
		return res, nil
	}

	// Traced run: the per-request figures.
	var submit, wait, run, fetch, overhead []float64
	polls := 0
	for _, jt := range jobs {
		if jt.Err != nil {
			continue
		}
		submit = append(submit, jt.Submit.Seconds())
		wait = append(wait, jt.Record.Result.QueueWaitMs)
		run = append(run, float64(jt.Record.Result.WallMillis)/1e3)
		fetch = append(fetch, jt.Fetch.Seconds())
		overhead = append(overhead, (jt.Latency - classes[jt.Class].Ref.Wall).Seconds())
		polls += jt.Polls
	}
	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	m["serve.interactive_latency_p50_s"] = median(lat[0])
	if p90, err := percentile(lat[0], 90); err == nil {
		m["serve.interactive_latency_p90_s"] = p90
	} else {
		fmt.Fprintf(r.log, "serve.interactive_latency_p90_s reads 0: %v (run longer: -seconds)\n", err)
	}
	m["serve.batch_latency_p50_s"] = median(lat[1])
	for _, s := range lat[1] {
		m["serve.batch_latency_max_s"] = max(m["serve.batch_latency_max_s"], s)
	}
	m["serve.submit_s_p50"] = median(submit)
	m["serve.queue_wait_ms_p50"] = median(wait)
	m["serve.run_s_p50"] = median(run)
	m["serve.result_fetch_s_p50"] = median(fetch)
	m["serve.overhead_s_p50"] = median(overhead)
	m["serve.polls_per_job"] = float64(polls) / float64(len(submit))
	m["serve.http_errors"] = float64(httpErrors)
	return res, tr.write(r.traceFile(w.Name))
}

// moreCycles decides whether a client starts cycle i (from 0), given the
// seconds since the clients started.
func (r *runner) moreCycles(i int, elapsed float64) bool {
	if r.reps > 0 {
		return i < r.reps
	}
	return i < 1 || elapsed < r.seconds
}
