// Package thermosc is a library for throughput maximization on
// temperature-constrained multi-core processors via frequency oscillation,
// reproducing Sha et al., "Performance Maximization via Frequency
// Oscillation on Temperature Constrained Multi-core Processors"
// (ICPP 2016).
//
// The package wraps a compact RC thermal model (HotSpot-style layered
// die/spreader/sink network, leakage/temperature dependency folded into
// the system matrix) and four scheduling policies:
//
//   - MethodLNS — round the ideal continuous speeds down to the lower
//     neighboring discrete mode (baseline).
//   - MethodEXS — exhaustive search over constant per-core modes
//     (the paper's Algorithm 1, implemented with an identical-optimum
//     branch-and-bound).
//   - MethodAO — aligned frequency oscillation (the paper's Algorithm 2):
//     two neighboring modes per core, oscillated m times per period, with
//     TPT-guided ratio adjustment under a provable peak-temperature
//     evaluation.
//   - MethodPCO — phase-conscious oscillation: AO plus per-core phase
//     interleaving and headroom refill.
//
// # Quick start
//
//	plat, err := thermosc.New(3, 1)                    // a 3×1 chip
//	if err != nil { ... }
//	plan, err := plat.Maximize(thermosc.MethodAO, 65)  // Tmax = 65 °C
//	if err != nil { ... }
//	fmt.Printf("throughput %.4f at peak %.2f °C\n", plan.Throughput, plan.PeakC)
//
// All public temperatures are absolute °C; the voltage range and thermal
// package are configurable through Options.
package thermosc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"thermosc/internal/floorplan"
	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/solver"
	"thermosc/internal/thermal"
)

// Method selects a scheduling policy.
type Method string

// The available scheduling policies.
const (
	MethodIdeal Method = "Ideal" // continuous-voltage upper bound
	MethodLNS   Method = "LNS"
	MethodEXS   Method = "EXS"
	MethodAO    Method = "AO"
	MethodPCO   Method = "PCO"
)

// Methods lists every policy in comparison order.
func Methods() []Method {
	return []Method{MethodLNS, MethodEXS, MethodAO, MethodPCO}
}

// Platform is a configured multi-core platform: floorplan, thermal model,
// power model, and DVFS capabilities.
type Platform struct {
	model    *thermal.Model
	levels   *power.LevelSet
	overhead power.TransitionOverhead
	period   float64

	// One evaluation engine per platform, built lazily and shared by
	// every solve on this platform: concurrent Maximize calls reuse a
	// single propagator / period-operator pool (bit-identical results,
	// see sim.Engine). The Once makes Platform non-copyable by vet,
	// which is the intent — pass *Platform around.
	engOnce sync.Once
	eng     *sim.Engine
}

// engine returns the platform's shared evaluation engine.
func (p *Platform) engine() *sim.Engine {
	p.engOnce.Do(func() {
		p.eng = sim.NewEngine(p.model)
	})
	return p.eng
}

// New builds a rows×cols grid platform with the repository's calibrated
// 65 nm defaults (4×4 mm² cores, 35 °C ambient, 0.6–1.3 V DVFS range in
// 0.05 V steps, 5 µs transition stalls, 20 ms base period), modified by
// the given options.
func New(rows, cols int, opts ...Option) (*Platform, error) {
	cfg := config{
		coreEdge: 4e-3,
		pkg:      thermal.HotSpot65nm(),
		pwr:      power.DefaultModel(),
		levels:   power.FullRange(),
		overhead: power.DefaultOverhead(),
		period:   20e-3,
	}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	fp, err := floorplan.Grid(rows, cols, cfg.coreEdge)
	if err != nil {
		return nil, err
	}
	// Large chips need a proportionally stronger package or no operating
	// point is thermally sustainable; scale the convection path with the
	// core count (identity at ≤16 cores) unless the caller pinned the
	// convection resistance explicitly.
	totalCores := rows * cols
	if cfg.stackLayers > 1 {
		totalCores *= cfg.stackLayers
	}
	if !cfg.convectionSet {
		cfg.pkg = thermal.ScaledPackage(cfg.pkg, totalCores)
	}
	var md *thermal.Model
	switch {
	case cfg.coreLevel != nil && cfg.stackLayers > 1:
		return nil, fmt.Errorf("thermosc: core-level and stacked models are mutually exclusive")
	case cfg.coreScales != nil && cfg.coreLevel != nil:
		return nil, fmt.Errorf("thermosc: core scales are not supported by the core-level model")
	case cfg.coreLevel != nil:
		md, err = thermal.NewCoreLevelModel(fp, *cfg.coreLevel, cfg.pwr)
	case cfg.stackLayers > 1:
		sp := thermal.DefaultStack(cfg.stackLayers)
		sp.PackageParams = cfg.pkg
		sp.Layers = cfg.stackLayers
		md, err = thermal.NewStackedModel(fp, sp, cfg.pwr, thermal.WithHeteroScales(cfg.coreScales))
	default:
		md, err = thermal.NewHeteroModel(fp, cfg.pkg, cfg.pwr, cfg.coreScales)
	}
	if err != nil {
		return nil, err
	}
	return &Platform{
		model:    md,
		levels:   cfg.levels,
		overhead: cfg.overhead,
		period:   cfg.period,
	}, nil
}

// NumCores returns the number of cores.
func (p *Platform) NumCores() int { return p.model.NumCores() }

// AmbientC returns the ambient temperature in °C.
func (p *Platform) AmbientC() float64 { return p.model.Package().AmbientC }

// VoltageLevels returns the available discrete supply voltages, ascending.
func (p *Platform) VoltageLevels() []float64 { return p.levels.Voltages() }

// SteadyTempC returns the steady-state absolute temperature (°C) of every
// core when each runs forever at the given voltage (0 = off). This is the
// paper's T∞ = −A⁻¹B evaluated through the exact linear solve.
func (p *Platform) SteadyTempC(voltages []float64) ([]float64, error) {
	if len(voltages) != p.NumCores() {
		return nil, fmt.Errorf("thermosc: %d voltages for %d cores", len(voltages), p.NumCores())
	}
	modes := make([]power.Mode, len(voltages))
	for i, v := range voltages {
		if v < 0 {
			return nil, fmt.Errorf("thermosc: negative voltage %v", v)
		}
		modes[i] = power.NewMode(v)
	}
	temps := p.model.SteadyStateCores(modes)
	out := make([]float64, len(temps))
	for i, rise := range temps {
		out[i] = p.model.Absolute(rise)
	}
	return out, nil
}

// IdealVoltagesC returns the continuous per-core voltages that pin every
// core's steady temperature at tmaxC (the paper's §V starting point).
func (p *Platform) IdealVoltagesC(tmaxC float64) ([]float64, error) {
	return solver.IdealVoltages(p.model, p.model.Rise(tmaxC), p.levels.Max())
}

// DominantTimeConstant returns the platform's slowest thermal time
// constant in seconds.
func (p *Platform) DominantTimeConstant() float64 {
	return p.model.DominantTimeConstant()
}

// Maximize runs the selected policy against the peak temperature
// threshold tmaxC (absolute °C) and returns the resulting plan.
func (p *Platform) Maximize(m Method, tmaxC float64) (*Plan, error) {
	return p.MaximizeContext(context.Background(), m, tmaxC, 0)
}

// MaximizeContext is Maximize with cancellation and solver tuning: ctx
// cancels or times out the search loops (the AO/PCO m-search, the
// TPT/refill adjustment scans, and the EXS branch-and-bound all observe
// it), and workers sets the parallel fan-out width of the candidate scans
// (0 = GOMAXPROCS; every width returns the identical plan). All solves on
// one Platform share a single evaluation-engine pool, so concurrent
// requests against the same platform reuse each other's thermal
// operators.
func (p *Platform) MaximizeContext(ctx context.Context, m Method, tmaxC float64, workers int) (*Plan, error) {
	prob := solver.Problem{
		Model:      p.model,
		Levels:     p.levels,
		TmaxC:      tmaxC,
		Overhead:   p.overhead,
		BasePeriod: p.period,
		Workers:    workers,
		Ctx:        ctx,
		Engine:     p.engine(),
	}
	var (
		res *solver.Result
		err error
	)
	switch m {
	case MethodIdeal:
		res, err = solver.Ideal(prob)
	case MethodLNS:
		res, err = solver.LNS(prob)
	case MethodEXS:
		res, err = solver.EXS(prob)
	case MethodAO:
		res, err = solver.AO(prob)
	case MethodPCO:
		res, err = solver.PCO(prob)
	default:
		return nil, fmt.Errorf("thermosc: unknown method %q", m)
	}
	if err != nil {
		return nil, err
	}
	return newPlan(p, m, res), nil
}

// MinimizePeak solves the dual problem: the coolest peak-temperature
// threshold (°C, within tolK kelvins) at which the platform still
// sustains the target chip-wide throughput, together with the AO plan
// achieving it. Useful for fan policies and reliability budgeting when
// the performance contract is fixed.
func (p *Platform) MinimizePeak(targetThroughput, tolK float64) (*Plan, float64, error) {
	prob := solver.Problem{
		Model:      p.model,
		Levels:     p.levels,
		TmaxC:      p.model.Package().AmbientC + 30, // placeholder; MinPeak brackets internally
		Overhead:   p.overhead,
		BasePeriod: p.period,
		Engine:     p.engine(),
	}
	res, tmin, err := solver.MinPeak(prob, targetThroughput, tolK)
	if err != nil {
		return nil, 0, err
	}
	return newPlan(p, MethodAO, res), tmin, nil
}

// Compare runs every discrete-mode policy (LNS, EXS, AO, PCO) and returns
// the plans keyed by method.
func (p *Platform) Compare(tmaxC float64) (map[Method]*Plan, error) {
	out := make(map[Method]*Plan, 4)
	for _, m := range Methods() {
		plan, err := p.Maximize(m, tmaxC)
		if err != nil {
			return nil, fmt.Errorf("thermosc: %s: %w", m, err)
		}
		out[m] = plan
	}
	return out, nil
}

// VerifyPeakC independently verifies a plan's peak temperature by a dense
// stable-status search at the given per-interval sampling resolution,
// returning the absolute peak in °C.
func (p *Platform) VerifyPeakC(plan *Plan, samples int) (float64, error) {
	s, err := plan.internalSchedule(p)
	if err != nil {
		return 0, err
	}
	st, err := sim.NewStable(p.model, s)
	if err != nil {
		return 0, err
	}
	peak, _, _ := st.PeakDense(samples)
	return p.model.Absolute(peak), nil
}

// Trace simulates the plan's schedule from ambient for nPeriods periods,
// sampling samplesPerPeriod points per period, and returns absolute core
// temperatures over time.
func (p *Platform) Trace(plan *Plan, nPeriods, samplesPerPeriod int) (*TraceData, error) {
	if nPeriods < 1 || samplesPerPeriod < 1 {
		return nil, fmt.Errorf("thermosc: invalid trace request (%d periods, %d samples)", nPeriods, samplesPerPeriod)
	}
	s, err := plan.internalSchedule(p)
	if err != nil {
		return nil, err
	}
	tr := sim.Transient(p.model, s, p.model.ZeroState(), nPeriods, samplesPerPeriod)
	td := &TraceData{
		TimeS:     append([]float64(nil), tr.Times...),
		CoreTempC: make([][]float64, p.NumCores()),
	}
	for i := 0; i < p.NumCores(); i++ {
		td.CoreTempC[i] = tr.CoreSeries(p.model, i)
	}
	return td, nil
}

// TraceData is a sampled absolute-temperature trajectory per core.
type TraceData struct {
	TimeS     []float64   // sample times in seconds
	CoreTempC [][]float64 // [core][sample] absolute °C
}

// MaxC returns the hottest sampled core temperature in the trace.
func (td *TraceData) MaxC() float64 {
	best := td.CoreTempC[0][0]
	for _, series := range td.CoreTempC {
		if m, _ := mat.VecMax(series); m > best {
			best = m
		}
	}
	return best
}

// Plan is the outcome of Maximize: the periodic schedule to execute and
// its verified characteristics.
type Plan struct {
	Method     Method
	Throughput float64 // chip-wide useful throughput (eq. (5))
	PeakC      float64 // verified stable-status peak, absolute °C
	Feasible   bool    // PeakC respects the threshold
	M          int     // oscillation count (1 for constant-mode plans)
	PeriodS    float64 // period of the schedule below, seconds
	// Cores[i] is core i's periodic voltage timeline (slices in order;
	// lengths sum to PeriodS). Empty when the policy found no feasible
	// assignment.
	Cores   [][]Slice
	Elapsed time.Duration // solver wall-clock time
	// Degraded marks an anytime plan: the solve hit its deadline and this
	// is the best valid plan found so far (or the constant safe floor),
	// not the full search's answer. PeakC/Feasible are still exact for
	// the plan returned — only optimality is lost. Degraded plans are
	// timing-dependent and must never be treated as cache-canonical.
	Degraded bool
	// DegradedReason says how far the search got before truncation (one
	// of the solver's DegradedReason tags, e.g. "m-search-truncated",
	// "safe-floor"). Empty for complete plans.
	DegradedReason string
}

// Slice is one stretch of a core's periodic timeline.
type Slice struct {
	Seconds float64
	Voltage float64 // 0 = core off
}

func newPlan(p *Platform, m Method, res *solver.Result) *Plan {
	plan := &Plan{
		Method:         m,
		Throughput:     res.Throughput,
		PeakC:          res.PeakC(p.model),
		Feasible:       res.Feasible,
		M:              res.M,
		Elapsed:        res.Elapsed,
		Degraded:       res.Degraded != solver.DegradedNone,
		DegradedReason: string(res.Degraded),
	}
	if res.Schedule != nil {
		plan.PeriodS = res.Schedule.Period()
		plan.Cores = make([][]Slice, res.Schedule.NumCores())
		for i := range plan.Cores {
			for _, seg := range res.Schedule.CoreSegments(i) {
				plan.Cores[i] = append(plan.Cores[i], Slice{Seconds: seg.Length, Voltage: seg.Mode.Voltage})
			}
		}
	}
	return plan
}

// internalSchedule rebuilds the internal schedule representation.
func (plan *Plan) internalSchedule(p *Platform) (*schedule.Schedule, error) {
	if len(plan.Cores) == 0 {
		return nil, fmt.Errorf("thermosc: plan %q carries no schedule (infeasible)", plan.Method)
	}
	if len(plan.Cores) != p.NumCores() {
		return nil, fmt.Errorf("thermosc: plan has %d cores, platform %d", len(plan.Cores), p.NumCores())
	}
	cores := make([][]schedule.Segment, len(plan.Cores))
	for i, slices := range plan.Cores {
		for _, sl := range slices {
			cores[i] = append(cores[i], schedule.Segment{
				Length: sl.Seconds,
				Mode:   power.NewMode(sl.Voltage),
			})
		}
	}
	return schedule.New(cores)
}
