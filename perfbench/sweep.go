package main

import (
	"context"
	"fmt"
	"time"

	"thermosc"
	"thermosc/internal/floorplan"
	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/sim"
	"thermosc/internal/solver"
	"thermosc/internal/thermal"
)

// sweepTail is the sweep's tail percentile: a pass is 69 solves, and a
// run makes at least two passes, so p90 keeps ten samples beyond it.
const sweepTail = 0.90

// sweepPass solves every point of one pass on platforms built fresh
// through thermosc.New, appending each solve's latency. It returns the
// plans and platforms indexed like order, and the pass's busy time.
//
// With a speedometer, a calibration burst runs between consecutive
// solves, and each solve (with the platform build before it, for a
// platform's first solve) is read at the reference speed by the faster of
// the bursts on either side of it; raw, if not nil, gets the clock's
// readings. Solves are short, and this reading follows the host's speed
// from one solve to the next.
func sweepPass(order [][]sweepPoint, sp *speedometer, lat, raw *[]float64, t *tally) ([][]*thermosc.Plan, []*thermosc.Platform, time.Duration, error) {
	plans := make([][]*thermosc.Plan, len(sweepSpecs))
	plats := make([]*thermosc.Platform, len(sweepSpecs))
	var busy time.Duration
	prev := 0.0
	if sp != nil {
		prev = sp.probe()
	}
	for i, s := range sweepSpecs {
		buildStart := time.Now()
		plat, err := thermosc.New(s.rows, s.cols, s.options()...)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("building %s: %w", s.cls, err)
		}
		build := time.Since(buildStart)
		plats[i] = plat
		plans[i] = make([]*thermosc.Plan, len(order[i]))
		for j, p := range order[i] {
			t.attempted++
			start := time.Now()
			plan, err := plat.MaximizeContext(context.Background(), p.method, p.tmax, 0)
			d := time.Since(start)
			work := d
			if j == 0 {
				work += build // a platform's build counts with its first solve
			}
			f := 1.0
			if sp != nil {
				next := sp.probe()
				f, prev = between(prev, next), next
			}
			busy += time.Duration(float64(work) * f)
			*lat = append(*lat, ms(d)*f)
			if raw != nil {
				*raw = append(*raw, ms(d))
			}
			switch {
			case err != nil:
				t.fail("%s %s %.1f: %v", s.cls, p.method, p.tmax, err)
			case plan.Degraded || !plan.Feasible:
				t.fail("%s %s %.1f: degraded %v feasible %v", s.cls, p.method, p.tmax, plan.Degraded, plan.Feasible)
			default:
				plans[i][j] = plan
			}
		}
	}
	return plans, plats, busy, nil
}

// samePlans counts a failure for every plan whose throughput differs
// from the reference pass's: solves are deterministic.
func samePlans(ref, got [][]*thermosc.Plan, order [][]sweepPoint, t *tally) {
	for i := range ref {
		for j, p := range ref[i] {
			q := got[i][j]
			if p != nil && q != nil && p.Throughput != q.Throughput {
				t.fail("%s %s %.1f: throughput %v then %v", sweepSpecs[i].cls, order[i][j].method, order[i][j].tmax, p.Throughput, q.Throughput)
			}
		}
	}
}

// auditPlans checks every plan with the independent oracle.
func auditPlans(plans [][]*thermosc.Plan, plats []*thermosc.Platform, order [][]sweepPoint, rec *recorder, auditMS map[string][]float64, t *tally) {
	for i, row := range plans {
		for j, plan := range row {
			if plan == nil {
				continue
			}
			p := order[i][j]
			id := rec.begin("verify.audit", 0, int64(i*1000+j))
			start := time.Now()
			rep, err := plats[i].Audit(plan, p.tmax)
			d := time.Since(start)
			rec.end(id)
			if auditMS != nil {
				auditMS[sweepSpecs[i].cls] = append(auditMS[sweepSpecs[i].cls], ms(d))
			}
			if err != nil || !rep.OK {
				t.fail("%s %s %.1f: audit: %v %v", sweepSpecs[i].cls, p.method, p.tmax, err, rep)
			}
		}
	}
}

func planThroughput(plans [][]*thermosc.Plan) float64 {
	var sum float64
	for _, row := range plans {
		for _, p := range row {
			if p != nil {
				sum += p.Throughput
			}
		}
	}
	return sum
}

func buildSweepPlatforms() ([]*thermosc.Platform, error) {
	out := make([]*thermosc.Platform, len(sweepSpecs))
	for i, s := range sweepSpecs {
		p, err := thermosc.New(s.rows, s.cols, s.options()...)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func runSweep(cfg runConfig, t *tally) (metricSet, error) {
	order := sweepOrder(cfg.seed)
	if cfg.rec != nil {
		return traceSweep(cfg, order, t)
	}
	sp := &speedometer{}
	_, setup, rawSetup, err := medianSetup(21, sp, buildSweepPlatforms, nil)
	if err != nil {
		return nil, err
	}
	var (
		lat, raw   []float64
		first      [][]*thermosc.Plan
		firstPlats []*thermosc.Platform
		passes     int
		busy       time.Duration
		start      = time.Now()
		solves     = t.attempted
	)
	for passes == 0 || time.Since(start) < cfg.seconds {
		plans, plats, d, err := sweepPass(order, sp, &lat, &raw, t)
		if err != nil {
			return nil, err
		}
		busy += d
		if first == nil {
			first, firstPlats = plans, plats
		} else {
			samePlans(first, plans, order, t)
		}
		passes++
	}
	elapsed := time.Since(start)
	solves = t.attempted - solves
	heap := liveHeapMB()
	auditPlans(first, firstPlats, order, nil, nil, t)
	vals := metricSet{
		"setup_s":         setup,
		"ops_per_s":       float64(solves) / busy.Seconds(),
		"latency_p50_ms":  median(lat),
		"latency_tail_ms": percentile(lat, sweepTail),
		"plan_throughput": planThroughput(first),
		"heap_live_mb":    heap,

		"unscaled.setup_s":         rawSetup,
		"unscaled.latency_p50_ms":  median(raw),
		"unscaled.latency_tail_ms": percentile(raw, sweepTail),
	}
	logf("sweep: %d passes, %d solves in %v", passes, solves, elapsed.Round(time.Millisecond))
	return vals, nil
}

// mirror is a platform rebuilt from the internal packages exactly as
// thermosc.New builds it, so the traced run can call each layer directly.
type mirror struct {
	model  *thermal.Model
	levels *power.LevelSet
	eng    *sim.Engine
}

func newMirror(s sweepSpec) (*mirror, error) {
	levels := power.FullRange()
	if s.levels > 0 {
		var err error
		if levels, err = power.PaperLevels(s.levels); err != nil {
			return nil, err
		}
	}
	fp, err := floorplan.Grid(s.rows, s.cols, 4e-3)
	if err != nil {
		return nil, err
	}
	pkg := thermal.ScaledPackage(thermal.HotSpot65nm(), s.rows*s.cols)
	md, err := thermal.NewHeteroModel(fp, pkg, power.DefaultModel(), nil)
	if err != nil {
		return nil, err
	}
	return &mirror{model: md, levels: levels, eng: sim.NewEngine(md)}, nil
}

// problem builds the solver input exactly as Platform.MaximizeContext
// does.
func (m *mirror) problem(tmax float64) solver.Problem {
	return solver.Problem{
		Model:      m.model,
		Levels:     m.levels,
		TmaxC:      tmax,
		Overhead:   power.DefaultOverhead(),
		BasePeriod: 20e-3,
		Ctx:        context.Background(),
		Engine:     m.eng,
	}
}

func solve(method thermosc.Method, p solver.Problem) (*solver.Result, error) {
	switch method {
	case thermosc.MethodAO:
		return solver.AO(p)
	case thermosc.MethodPCO:
		return solver.PCO(p)
	case thermosc.MethodLNS:
		return solver.LNS(p)
	case thermosc.MethodEXS:
		return solver.EXS(p)
	}
	return nil, fmt.Errorf("no direct solver for %s", method)
}

// traceSweep alternates untraced passes through the public API with
// traced passes that call each layer directly on the same problems,
// until the run's time is spent.
func traceSweep(cfg runConfig, order [][]sweepPoint, t *tally) (metricSet, error) {
	rec := cfg.rec
	var (
		solveMS  = map[string][]float64{}
		idealUS  = map[string][]float64{}
		peakUS   = map[string][]float64{}
		compUS   = map[string][]float64{}
		buildMS  = map[string][]float64{}
		auditMS  = map[string][]float64{}
		evals    = map[string]int64{}
		mEval    = map[string]int64{}
		solveDur = map[string]time.Duration{}
		prop     thermal.PropagatorStats
		untraced time.Duration
		traced   time.Duration
		big      *mirror
		start    = time.Now()
	)
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		var lat []float64
		ref, plats, _, err := sweepPass(order, nil, &lat, nil, t)
		if err != nil {
			return nil, err
		}
		for _, l := range lat {
			untraced += time.Duration(l * 1e6)
		}
		for i, s := range sweepSpecs {
			req := int64(pass*100 + i + 1)
			root := rec.begin("bench.platform", 0, req)
			id := rec.begin("thermal.build", root, req)
			b0 := time.Now()
			m, err := newMirror(s)
			buildMS[s.cls] = append(buildMS[s.cls], ms(time.Since(b0)))
			rec.end(id)
			if err != nil {
				return nil, err
			}
			for j, p := range order[i] {
				t.attempted++
				prob := m.problem(p.tmax)
				id = rec.begin("solver.ideal", root, req)
				t0 := time.Now()
				_, err := solver.IdealVoltages(m.model, m.model.Rise(p.tmax), m.levels.Max())
				idealUS[s.cls] = append(idealUS[s.cls], us(time.Since(t0)))
				rec.end(id)
				if err != nil {
					t.fail("%s ideal %.1f: %v", s.cls, p.tmax, err)
					continue
				}
				id = rec.begin("solver."+string(p.method), root, req)
				t0 = time.Now()
				res, err := solve(p.method, prob)
				d := time.Since(t0)
				rec.end(id)
				traced += d
				key := s.cls + "." + string(p.method)
				solveMS[key] = append(solveMS[key], ms(d))
				if err != nil {
					t.fail("%s %s %.1f direct: %v", s.cls, p.method, p.tmax, err)
					continue
				}
				if want := ref[i][j]; want == nil || res.Throughput != want.Throughput {
					t.fail("%s %s %.1f: direct solve throughput %v differs from the public API's plan", s.cls, p.method, p.tmax, res.Throughput)
				}
				evals[s.cls] += res.Evals
				mEval[s.cls] += int64(res.MEvaluated)
				solveDur[s.cls] += d
				sched := res.Schedule.StepUp()
				d, err = rec.timeCall("sim.peak_eval", root, req, func() error { _, _, err := m.eng.StepUpPeak(sched); return err })
				peakUS[s.cls] = append(peakUS[s.cls], us(d))
				if err != nil {
					t.fail("%s %.1f peak eval: %v", s.cls, p.tmax, err)
				}
				d, err = rec.timeCall("sim.composed_eval", root, req, func() error { _, _, err := m.eng.StepUpPeakComposed(sched); return err })
				compUS[s.cls] = append(compUS[s.cls], us(d))
				if err != nil {
					t.fail("%s %.1f composed eval: %v", s.cls, p.tmax, err)
				}
			}
			st := m.eng.Propagator().Stats()
			prop.SteadyHits += st.SteadyHits
			prop.SteadyMisses += st.SteadyMisses
			prop.ExpHits += st.ExpHits
			prop.ExpMisses += st.ExpMisses
			if m.model.SparsePath() {
				big = m
			}
			rec.end(root)
		}
		auditPlans(ref, plats, order, rec, auditMS, t)
	}
	vals := metricSet{}
	for _, s := range sweepSpecs {
		for _, m := range s.methods {
			vals["solver.solve_ms."+s.cls+"."+string(m)] = mean(solveMS[s.cls+"."+string(m)])
		}
		vals["solver.evals."+s.cls] = float64(evals[s.cls])
		vals["solver.m_evaluated."+s.cls] = float64(mEval[s.cls])
		vals["solver.ns_per_eval."+s.cls] = share(float64(solveDur[s.cls]), float64(evals[s.cls]))
		vals["solver.ideal_us."+s.cls] = mean(idealUS[s.cls])
		vals["sim.peak_eval_us."+s.cls] = mean(peakUS[s.cls])
		vals["sim.composed_eval_us."+s.cls] = mean(compUS[s.cls])
		vals["thermal.build_ms."+s.cls] = median(buildMS[s.cls])
		vals["verify.audit_ms."+s.cls] = mean(auditMS[s.cls])
	}
	// The counts are per pass: every pass repeats the same solves.
	passes := float64(len(buildMS[sweepSpecs[0].cls]))
	for _, s := range sweepSpecs {
		vals["solver.evals."+s.cls] /= passes
		vals["solver.m_evaluated."+s.cls] /= passes
	}
	vals["thermal.steady_hit_ratio"] = share(float64(prop.SteadyHits), float64(prop.SteadyHits+prop.SteadyMisses))
	vals["thermal.exp_hit_ratio"] = share(float64(prop.ExpHits), float64(prop.ExpHits+prop.ExpMisses))
	vals["thermal.steady_misses"] = float64(prop.SteadyMisses) / passes
	vals["thermal.exp_misses"] = float64(prop.ExpMisses) / passes
	vals["bench.trace_overhead_share"] = share(float64(traced-untraced), float64(untraced))
	if err := probeSolvers(rec, vals, t); err != nil {
		return nil, err
	}
	if big != nil {
		if err := probeSparse(rec, big, vals); err != nil {
			return nil, err
		}
	}
	var sp speedometer
	for i := 0; i < 5; i++ {
		sp.probe()
	}
	vals["bench.calib_ms"] = sp.medianMS()
	return vals, nil
}

// probeSolvers times LNS and EXS on the 3×3 two-level platform over its
// Tmax grid.
func probeSolvers(rec *recorder, vals metricSet, t *tally) error {
	s := sweepSpecs[1]
	m, err := newMirror(s)
	if err != nil {
		return err
	}
	for _, method := range []thermosc.Method{thermosc.MethodLNS, thermosc.MethodEXS} {
		var durs []float64
		for _, tmax := range s.tmax {
			t.attempted++
			id := rec.begin("solver."+string(method), 0, 0)
			start := time.Now()
			res, err := solve(method, m.problem(tmax))
			durs = append(durs, us(time.Since(start)))
			rec.end(id)
			if err != nil || !res.Feasible {
				t.fail("%s %s %.1f: %v", s.cls, method, tmax, err)
			}
		}
		name := "solver.lns_us"
		if method == thermosc.MethodEXS {
			name = "solver.exs_us"
		}
		vals[name] = mean(durs)
	}
	return nil
}

// probeSparse times the sparse kernels on the sparse platform's system:
// the Cholesky factorization of G − βE = −C·A and the exponential action
// of A over one 20 ms period.
func probeSparse(rec *recorder, m *mirror, vals metricSet) error {
	a := m.model.ASparse()
	negC := m.model.Capacitances()
	for i := range negC {
		negC[i] = -negC[i]
	}
	gmb := mat.NewCSRFromDense(a.ToDense().MulDiagLeft(negC))
	n, _ := a.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	dst := make([]float64, n)
	var ws mat.ExpmvScratch
	var factor, expmv []float64
	for r := 0; r < 20; r++ {
		id := rec.begin("mat.spchol_factor", 0, 0)
		start := time.Now()
		_, err := mat.FactorizeSparseCholesky(gmb)
		factor = append(factor, ms(time.Since(start)))
		rec.end(id)
		if err != nil {
			return fmt.Errorf("sparse Cholesky: %w", err)
		}
		id = rec.begin("mat.expmv", 0, 0)
		start = time.Now()
		a.ExpActionTo(dst, 20e-3, b, &ws)
		expmv = append(expmv, us(time.Since(start)))
		rec.end(id)
	}
	vals["mat.spchol_factor_ms"] = median(factor)
	vals["mat.expmv_us"] = median(expmv)
	return nil
}
