package main

// exec-hardened: the Figure 13 path. The nine paper apps' request drivers run
// under Hardened.NewExecution + Execution.Run with the full Kaleidoscope
// configuration (optimistic CFI plus monitors). One operation is one driver
// request; requests are timed in batches of execRequests per execution.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/workload"
)

const (
	execRequests  = 400 // driver requests per execution
	execInputSets = 4   // seeded input streams per app
)

// execApp is one hardened paper app with its seeded inputs and the
// unhardened interpreter's answers on them.
type execApp struct {
	name   string
	h      *core.Hardened
	inputs [][]int64
	want   []execAnswer
}

// execAnswer is what one execution returned.
type execAnswer struct {
	Result     int64
	Outputs    []int64
	Err        error
	Violations int // switcher violations (hardened runs only)
}

func (a execAnswer) diff(want execAnswer) []string {
	var out []string
	if a.Err != nil {
		out = append(out, fmt.Sprintf("execution failed: %v", a.Err))
	}
	if a.Violations != 0 {
		out = append(out, fmt.Sprintf("%d switcher violations on invariant-respecting inputs", a.Violations))
	}
	if a.Result != want.Result || !equal(a.Outputs, want.Outputs) {
		out = append(out, fmt.Sprintf("result %d with %d outputs, unhardened run gives %d with %d outputs",
			a.Result, len(a.Outputs), want.Result, len(want.Outputs)))
	}
	return out
}

// hardenApps analyses and hardens the nine paper apps under cfg.
func hardenApps(cfg invariant.Config) ([]*core.Hardened, error) {
	var out []*core.Hardened
	for _, app := range workload.Apps() {
		h, err := analyzeDefault(job{name: app.Name, src: app.Source, cfg: cfg})
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

func runExec(o options) (*report, error) {
	requests := execRequests
	if o.small {
		requests = 20
	}
	rep := newReport()

	// Set-up: analyse and harden the nine apps.
	var (
		hs  []*core.Hardened
		err error
	)
	rep.e2e["setup_s"], err = measureSetup(func() error {
		hs, err = hardenApps(invariant.All())
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	// Inputs and the unhardened interpreter's answers on them, untimed.
	var apps []*execApp
	for i, app := range workload.Apps() {
		a := &execApp{name: app.Name, h: hs[i]}
		for k := 0; k < execInputSets; k++ {
			in := app.Requests(requests, o.seed*1000+int64(k))
			tr := interp.New(hs[i].Sys.Module, interp.Config{}).Run("main", in)
			if tr.Err != nil {
				return nil, fmt.Errorf("%s: unhardened reference run: %w", app.Name, tr.Err)
			}
			a.inputs = append(a.inputs, in)
			a.want = append(a.want, execAnswer{Result: tr.Result, Outputs: tr.Outputs})
		}
		apps = append(apps, a)
	}

	var (
		perReq []float64
		busy   time.Duration
		done   int
		alloc0 = allocBytes()
		loopT0 = time.Now()
	)
	for i := 0; time.Since(loopT0) < o.run || len(perReq) < minSamples; i++ {
		a, k := apps[i%len(apps)], (i/len(apps))%execInputSets
		start := time.Now()
		e := a.h.NewExecution(false)
		tr := e.Run("main", a.inputs[k])
		d := time.Since(start)
		got := execAnswer{Result: tr.Result, Outputs: tr.Outputs, Err: tr.Err, Violations: len(e.Switcher.Violations())}
		if o.tamperExec != nil {
			o.tamperExec(&got)
		}
		rep.check(fmt.Sprintf("%s inputs %d", a.name, k), got.diff(a.want[k]))
		perReq = append(perReq, ms(d)/float64(requests))
		busy += d
		done += requests
	}
	alloc := allocBytes() - alloc0
	rep.e2e["op_p50_ms"] = median(perReq)
	rep.e2e["ops_per_s"] = float64(done) / busy.Seconds()
	rep.e2e["alloc_mb_per_op"] = float64(alloc) / float64(done) / 1e6

	if o.trace {
		var jobs []job
		for _, app := range workload.Apps() {
			jobs = append(jobs, job{name: app.Name, src: app.Source, cfg: invariant.All()})
		}
		passes, err := traceJobs(jobs, o.run/4, 5)
		if err != nil {
			return nil, err
		}
		analysisLayers(rep, passes, 1)
		if err := execLayers(rep, o, apps, requests); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// execLayers times the execution layers on the workload's own inputs, in
// rounds over every app and input set: the unhardened interpreter, the
// Baseline view (CFI checks from the fallback analysis, no monitors), and
// the full configuration (CFI on the optimistic view plus monitors), with
// NewExecution timed on its own.
func execLayers(rep *report, o options, apps []*execApp, requests int) error {
	base, err := hardenApps(invariant.Config{})
	if err != nil {
		return err
	}
	var (
		cfiOver, monOver, nsPerStep, newExec []float64
		steps, memOps, checks, reqs          int64
		start                                = time.Now()
	)
	for round := 0; round < 3 || time.Since(start) < o.run/2; round++ {
		var tU, tB, tK time.Duration
		var roundSteps int64
		for i, a := range apps {
			for k, in := range a.inputs {
				t := time.Now()
				trU := interp.New(a.h.Sys.Module, interp.Config{}).Run("main", in)
				tU += time.Since(t)

				eB := base[i].NewExecution(false)
				t = time.Now()
				trB := eB.Run("main", in)
				tB += time.Since(t)

				t = time.Now()
				eK := a.h.NewExecution(false)
				newExec = append(newExec, float64(time.Since(t))/float64(time.Microsecond))
				t = time.Now()
				trK := eK.Run("main", in)
				tK += time.Since(t)

				name := fmt.Sprintf("%s inputs %d", a.name, k)
				rep.check(name+" (unhardened)", execAnswer{Result: trU.Result, Outputs: trU.Outputs, Err: trU.Err}.diff(a.want[k]))
				rep.check(name+" (Baseline view)", execAnswer{Result: trB.Result, Outputs: trB.Outputs, Err: trB.Err,
					Violations: len(eB.Switcher.Violations())}.diff(a.want[k]))
				rep.check(name+" (Kaleidoscope)", execAnswer{Result: trK.Result, Outputs: trK.Outputs, Err: trK.Err,
					Violations: len(eK.Switcher.Violations())}.diff(a.want[k]))
				roundSteps += trU.Steps
				if round == 0 {
					steps += trU.Steps
					memOps += trU.MemOps
					checks += eK.Runtime.ChecksPerformed
					reqs += int64(requests)
				}
			}
		}
		cfiOver = append(cfiOver, float64(tB)/float64(tU)-1)
		monOver = append(monOver, float64(tK)/float64(tB)-1)
		nsPerStep = append(nsPerStep, float64(tU)/float64(roundSteps))
	}
	l := rep.layers
	l["core.new_execution_us"] = median(newExec)
	l["interp.steps"] = float64(steps) / float64(reqs)
	l["interp.mem_ops"] = float64(memOps) / float64(reqs)
	l["interp.unhardened_ns_per_step"] = median(nsPerStep)
	l["cfi.check_overhead"] = median(cfiOver)
	l["memview.monitor_overhead"] = median(monOver)
	l["memview.checks"] = float64(checks) / float64(reqs)
	l["memview.checks_per_memop"] = ratio(float64(checks), float64(memOps))
	return nil
}
