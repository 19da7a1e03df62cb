// Package guard is the runtime guardrail subsystem that closes the loop from
// telemetry back to reuse decisions — the paper's "do no harm" production
// lesson made executable. CloudViews shipped to 21 virtual clusters only
// because reuse could be disabled the moment it regressed customer jobs; the
// sequel work ("Deploying a Steered Query Optimizer in Production at
// Microsoft") formalizes the same discipline as flighted configurations
// guarded by regression watchdogs with automatic rollback. This package
// implements all three guardrails:
//
//   - Per-signature circuit breakers track the realized benefit of each
//     reused view (container-seconds saved by clean matches vs. promised
//     savings forfeited to read fallbacks) and quarantine signatures whose
//     reuse repeatedly degrades jobs. A quarantined breaker cools down for a
//     configured number of simulated days, then half-opens: a seeded-hash
//     fraction of jobs probe the view again, and enough clean probes close
//     the breaker while a single fallback re-opens it.
//   - A per-VC kill switch watches per-VC health series (hit rate, fallback
//     spikes, latency growth) through the telemetry watchdog rule engine and
//     disables CloudViews for the offending VC. Like OffboardVC's drain the
//     kill is side-effect-free — jobs simply compile without reuse — but it
//     is reversible: after a quiet cooldown the VC re-enables in stages
//     (1% → 10% → 100% of jobs admitted by seeded hash).
//   - Policy flighting assigns each VC a view-selection policy (control
//     utility-greedy vs. a local-search treatment) by deterministic seeded
//     hash; when a treatment VC's watchdog fires, the VC rolls back to the
//     control policy and is pinned there.
//
// Everything is deterministic under simulated time: state transitions happen
// either inline on the (serial, per-day) observation stream or at the
// end-of-day tick, admission decisions are pure functions of
// (seed, identity) via fault.Hash01, and the decision log renders
// byte-identically for identical seeds — including under -race.
//
// The degradation contract: the guard only ever declines reuse. A denied
// match compiles to the original subexpression, so quarantine and rollback
// can cost reuse, never correctness.
package guard

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cloudviews/internal/fault"
	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
	"cloudviews/internal/telemetry"
)

// BreakerState is one circuit-breaker position.
type BreakerState int

// Breaker states: Closed admits reuse, Open quarantines the signature,
// HalfOpen admits a probe fraction after cooldown.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// VCState is one kill switch position.
type VCState int

// Kill-switch states: Active serves reuse normally, Killed disables it for
// the VC, Ramping re-enables in staged fractions.
const (
	VCActive VCState = iota
	VCKilled
	VCRamping
)

func (s VCState) String() string {
	switch s {
	case VCActive:
		return "active"
	case VCKilled:
		return "killed"
	case VCRamping:
		return "ramping"
	}
	return "unknown"
}

// Per-VC health series names (each VC owns a private series map, so the
// names need no VC label).
const (
	SeriesVCHitRate   = "vc_hit_rate"
	SeriesVCFallbacks = "vc_fallbacks"
	SeriesVCLatency   = "vc_latency_sec"
)

// VCSLOConfig tunes the per-VC watchdog rules behind the kill switch. The
// zero value stays silent on healthy runs.
type VCSLOConfig struct {
	// HitRateDropPct warns when a VC's per-day view hit rate drops more than
	// this percent vs. the windowed reference (default 60).
	HitRateDropPct float64
	// MinHitRate is the reference floor below which the drop rule is silent
	// (default 0.10 views/job).
	MinHitRate float64
	// FallbackSpikeMax fires when a VC's jobs hit more view-read fallbacks
	// in one day than this (default 4).
	FallbackSpikeMax float64
	// LatencyGrowthPct fires when the VC's summed job latency grows more
	// than this percent vs. the windowed reference (default 200).
	LatencyGrowthPct float64
	// MinLatencySec is the reference floor for the latency rule (default 60).
	MinLatencySec float64
	// Window sizes the delta-rule reference window in days (default 1).
	Window int
}

func (c VCSLOConfig) withDefaults() VCSLOConfig {
	if c.HitRateDropPct == 0 {
		c.HitRateDropPct = 60
	}
	if c.MinHitRate == 0 {
		c.MinHitRate = 0.10
	}
	if c.FallbackSpikeMax == 0 {
		c.FallbackSpikeMax = 4
	}
	if c.LatencyGrowthPct == 0 {
		c.LatencyGrowthPct = 200
	}
	if c.MinLatencySec == 0 {
		c.MinLatencySec = 60
	}
	if c.Window == 0 {
		c.Window = 1
	}
	return c
}

// VCRules builds the per-VC watchdog rule set the kill switch evaluates.
func VCRules(cfg VCSLOConfig) []telemetry.Rule {
	cfg = cfg.withDefaults()
	return []telemetry.Rule{
		{
			Name: "vc-hit-rate-drop", Metric: SeriesVCHitRate, Kind: telemetry.DropPct,
			Threshold: cfg.HitRateDropPct, Window: cfg.Window,
			MinReference: cfg.MinHitRate, Severity: telemetry.SevWarn,
		},
		{
			Name: "vc-fallback-spike", Metric: SeriesVCFallbacks, Kind: telemetry.Above,
			Threshold: cfg.FallbackSpikeMax, Severity: telemetry.SevWarn,
		},
		{
			Name: "vc-latency-growth", Metric: SeriesVCLatency, Kind: telemetry.GrowthPct,
			Threshold: cfg.LatencyGrowthPct, Window: cfg.Window,
			MinReference: cfg.MinLatencySec, MinCount: 2, Severity: telemetry.SevWarn,
		},
	}
}

// FlightConfig tunes policy flighting.
type FlightConfig struct {
	// Enabled turns flighting on; off, PolicyFor returns "" (caller default).
	Enabled bool
	// Control / Treatment name the two selection policies (defaults
	// "greedy" / "local-search" — see analysis.SelectionConfig.PolicyFor).
	Control   string
	Treatment string
	// TreatmentFraction is the seeded-hash share of VCs assigned the
	// treatment arm (default 0.5).
	TreatmentFraction float64
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Control == "" {
		c.Control = "greedy"
	}
	if c.Treatment == "" {
		c.Treatment = "local-search"
	}
	if c.TreatmentFraction == 0 {
		c.TreatmentFraction = 0.5
	}
	return c
}

// Config assembles a Guard. The zero value disables the subsystem (New
// returns nil, and a nil *Guard no-ops every method).
type Config struct {
	// Enabled turns the guard on.
	Enabled bool
	// Seed keys every admission hash (probe, ramp, flight assignment).
	// Zero is a valid seed.
	Seed uint64

	// BreakerMinFallbacks is how many same-day fallbacks a signature needs
	// before the breaker may trip (default 3; the floor keeps one unlucky
	// read from quarantining a healthy view).
	BreakerMinFallbacks int
	// BreakerBadRatio trips the breaker when fallbacks reach this fraction
	// of the day's reuse attempts for the signature (default 0.5).
	BreakerBadRatio float64
	// CooldownDays is the quarantine length in simulated days before the
	// breaker half-opens (default 2).
	CooldownDays int
	// ProbeFraction is the seeded-hash share of jobs admitted to probe a
	// half-open breaker (default 0.25).
	ProbeFraction float64
	// ProbeSuccesses closes a half-open breaker after this many clean
	// probe matches (default 2).
	ProbeSuccesses int

	// KillAlertDays is how many consecutive alerting days a VC needs before
	// the kill switch trips (default 2; flight rollback absorbs the first
	// fire on treatment VCs).
	KillAlertDays int
	// ReenableDays is the quiet cooldown in simulated days before a killed
	// VC starts ramping back (default 2).
	ReenableDays int
	// RampFractions are the staged re-enable shares (default 0.01, 0.10, 1).
	RampFractions []float64
	// RampStageDays is how many days each ramp stage holds (default 1).
	RampStageDays int
	// VCSLO tunes the per-VC watchdog rules.
	VCSLO VCSLOConfig

	// Flight tunes policy flighting.
	Flight FlightConfig
}

func (c Config) withDefaults() Config {
	if c.BreakerMinFallbacks <= 0 {
		c.BreakerMinFallbacks = 3
	}
	if c.BreakerBadRatio <= 0 {
		c.BreakerBadRatio = 0.5
	}
	if c.CooldownDays <= 0 {
		c.CooldownDays = 2
	}
	if c.ProbeFraction <= 0 {
		c.ProbeFraction = 0.25
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
	if c.KillAlertDays <= 0 {
		c.KillAlertDays = 2
	}
	if c.ReenableDays <= 0 {
		c.ReenableDays = 2
	}
	if len(c.RampFractions) == 0 {
		c.RampFractions = []float64{0.01, 0.10, 1}
	}
	if c.RampStageDays <= 0 {
		c.RampStageDays = 1
	}
	c.Flight = c.Flight.withDefaults()
	return c
}

// Decision is one deterministic guard state transition, rendered into the
// decision log.
type Decision struct {
	Day    int
	Kind   string // breaker-trip, breaker-halfopen, breaker-close, breaker-reopen, vc-alert, vc-kill, vc-ramp, vc-rekill, vc-restore, flight-rollback, admin-*
	Key    string // signature (short) or VC name
	Detail string
}

// String renders the decision as one deterministic log line.
func (d Decision) String() string {
	return fmt.Sprintf("day %02d [%s] %s: %s", d.Day, d.Kind, d.Key, d.Detail)
}

// ViewOutcome reports the realized fate of one matched view in one executed
// job: either the read succeeded (the promised saving was banked) or the
// executor fell back to recomputation (the saving was forfeited and the
// read attempt wasted).
type ViewOutcome struct {
	Recurring signature.Sig
	// SavedSec is the optimizer's estimated container-seconds of recompute
	// the view avoids — banked on a clean match, forfeited on a fallback.
	SavedSec float64
	FellBack bool
}

// breaker is the per-recurring-signature circuit.
type breaker struct {
	state BreakerState
	vc    string // home VC of the first observation (for display only)

	// Current-day counters, reset at EndOfDay.
	dayMatches   int
	dayFallbacks int

	// Lifetime realized-benefit ledger.
	totalMatches   int
	totalFallbacks int
	savedSec       float64 // banked by clean matches
	lostSec        float64 // forfeited by fallbacks
	trips          int

	openedDay int  // day of the most recent trip/reopen
	probeOK   int  // clean probe matches while half-open
	forced    bool // admin-held open: cooldown never half-opens it
}

// vcGuard is the per-VC kill switch + flight state.
type vcGuard struct {
	state VCState

	// Current-day counters, reset at EndOfDay.
	dayJobs      int
	dayMatches   int
	dayFallbacks int
	dayDenied    int
	dayLatency   float64

	series map[string]*telemetry.Series

	alertDays  int // consecutive alerting days while Active
	killedDay  int
	rampStage  int
	rampSince  int
	kills      int
	deniedJobs int
	pinned     bool // flight: rolled back to control and held there
	forcedKill bool // admin-held kill: cooldown never ramps it
}

// Guard is the guardrail subsystem. All methods are safe on a nil receiver
// (reporting "allow everything") and safe for concurrent use; decision-log
// determinism additionally requires the serial per-day observation stream
// the engine's RunDay provides (concurrent submitters still get correct,
// race-free behavior — only log ordering is then interleaving-dependent).
type Guard struct {
	cfg Config

	mu       sync.Mutex
	breakers map[signature.Sig]*breaker
	vcs      map[string]*vcGuard
	dog      *telemetry.Watchdog
	log      []Decision

	// Metrics (nil-safe when SetMetrics was never called).
	mTrips     *obs.Counter
	mCloses    *obs.Counter
	mKills     *obs.Counter
	mRestores  *obs.Counter
	mRollbacks *obs.Counter
	mDeniedM   *obs.Counter
	mDeniedJ   *obs.Counter
	gOpen      *obs.Gauge
	gKilled    *obs.Gauge
}

// New builds a guard, or returns nil when the config is disabled — the
// disabled case is a nil receiver everywhere downstream, costing one branch.
func New(cfg Config) *Guard {
	if !cfg.Enabled {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Guard{
		cfg:      cfg,
		breakers: make(map[signature.Sig]*breaker),
		vcs:      make(map[string]*vcGuard),
		dog:      telemetry.NewWatchdog(VCRules(cfg.VCSLO)),
	}
}

// Enabled reports whether the guard is live.
func (g *Guard) Enabled() bool { return g != nil }

// Seed returns the guard's decision-hash seed.
func (g *Guard) Seed() uint64 {
	if g == nil {
		return 0
	}
	return g.cfg.Seed
}

// SetMetrics registers the cloudviews_guard_* metric families. Families are
// only created when a guard exists, keeping guard-free exports byte-identical.
func (g *Guard) SetMetrics(r *obs.Registry) {
	if g == nil || r == nil {
		return
	}
	g.mTrips = r.Counter("cloudviews_guard_breaker_trips_total")
	g.mCloses = r.Counter("cloudviews_guard_breaker_closes_total")
	g.mKills = r.Counter("cloudviews_guard_vc_kills_total")
	g.mRestores = r.Counter("cloudviews_guard_vc_restores_total")
	g.mRollbacks = r.Counter("cloudviews_guard_flight_rollbacks_total")
	g.mDeniedM = r.Counter("cloudviews_guard_denied_matches_total")
	g.mDeniedJ = r.Counter("cloudviews_guard_denied_jobs_total")
	g.gOpen = r.Gauge("cloudviews_guard_breakers_open")
	g.gKilled = r.Gauge("cloudviews_guard_vcs_disabled")
}

// vc returns (creating) the per-VC state. Caller holds g.mu.
func (g *Guard) vcLocked(vc string) *vcGuard {
	v, ok := g.vcs[vc]
	if !ok {
		v = &vcGuard{series: map[string]*telemetry.Series{
			SeriesVCHitRate:   telemetry.NewSeries(SeriesVCHitRate, 64),
			SeriesVCFallbacks: telemetry.NewSeries(SeriesVCFallbacks, 64),
			SeriesVCLatency:   telemetry.NewSeries(SeriesVCLatency, 64),
		}}
		g.vcs[vc] = v
	}
	return v
}

// AllowReuse is the kill-switch gate, checked once per job before the
// optimizer enables CloudViews. During a ramp, jobs are admitted by seeded
// hash of (seed, vc, jobID) so the same seed admits the same jobs.
func (g *Guard) AllowReuse(vc, jobID string) bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.vcs[vc]
	if !ok || v.state == VCActive {
		return true
	}
	if v.state == VCRamping {
		frac := g.cfg.RampFractions[v.rampStage]
		if fault.Hash01(g.cfg.Seed, "guard.ramp", vc, jobID) < frac {
			return true
		}
	}
	v.dayDenied++
	v.deniedJobs++
	g.mDeniedJ.Inc()
	return false
}

// AllowMatch is the circuit-breaker gate, checked per candidate view at
// match time. Open breakers deny; half-open breakers admit a seeded-hash
// probe fraction of jobs.
func (g *Guard) AllowMatch(vc, jobID string, recurring signature.Sig) bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.breakers[recurring]
	if !ok || b.state == BreakerClosed {
		return true
	}
	if b.state == BreakerHalfOpen &&
		fault.Hash01(g.cfg.Seed, "guard.probe", string(recurring), jobID) < g.cfg.ProbeFraction {
		return true
	}
	_ = vc
	g.mDeniedM.Inc()
	return false
}

// ObserveJob feeds one executed job's realized view outcomes back into the
// guard: per-signature breaker ledgers and per-VC day counters. Breakers trip
// eagerly — as soon as the day's fallbacks for a signature cross the
// configured floor and ratio — so a fault storm is quarantined mid-day, not
// at the boundary. Returned decisions (if any) are also appended to the log.
func (g *Guard) ObserveJob(day int, vc, jobID string, views []ViewOutcome) []Decision {
	if g == nil {
		return nil
	}
	_ = jobID
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.vcLocked(vc)
	v.dayJobs++
	var out []Decision
	for _, o := range views {
		b, ok := g.breakers[o.Recurring]
		if !ok {
			b = &breaker{vc: vc}
			g.breakers[o.Recurring] = b
		}
		if o.FellBack {
			b.dayFallbacks++
			b.totalFallbacks++
			b.lostSec += o.SavedSec
			v.dayFallbacks++
		} else {
			b.dayMatches++
			b.totalMatches++
			b.savedSec += o.SavedSec
			v.dayMatches++
		}
		switch b.state {
		case BreakerClosed:
			attempts := b.dayMatches + b.dayFallbacks
			if b.dayFallbacks >= g.cfg.BreakerMinFallbacks &&
				float64(b.dayFallbacks) >= g.cfg.BreakerBadRatio*float64(attempts) {
				b.state = BreakerOpen
				b.openedDay = day
				b.trips++
				g.mTrips.Inc()
				out = append(out, g.logLocked(Decision{
					Day: day, Kind: "breaker-trip", Key: o.Recurring.Short(),
					Detail: fmt.Sprintf("quarantined: %d/%d reuse attempts fell back today (lost %.1fs, banked %.1fs)",
						b.dayFallbacks, attempts, b.lostSec, b.savedSec),
				}))
			}
		case BreakerHalfOpen:
			if o.FellBack {
				b.state = BreakerOpen
				b.openedDay = day
				b.probeOK = 0
				b.trips++
				g.mTrips.Inc()
				out = append(out, g.logLocked(Decision{
					Day: day, Kind: "breaker-reopen", Key: o.Recurring.Short(),
					Detail: "probe fell back; quarantine restarts",
				}))
			} else {
				b.probeOK++
			}
		}
	}
	return out
}

// AddLatency charges one job's scheduled latency onto its VC's day series
// input (RunDay calls it after the cluster schedule resolves).
func (g *Guard) AddLatency(day int, vc string, latencySec float64) {
	if g == nil {
		return
	}
	_ = day
	g.mu.Lock()
	g.vcLocked(vc).dayLatency += latencySec
	g.mu.Unlock()
}

// logLocked appends a decision to the log. Caller holds g.mu.
func (g *Guard) logLocked(d Decision) Decision {
	g.log = append(g.log, d)
	return d
}

// EndOfDay runs the day-boundary state machine — breaker cooldown/half-open/
// close transitions, per-VC watchdog evaluation, kill/ramp/restore, flight
// rollback — then resets the day counters and returns every decision logged
// for the day (eager intra-day breaker trips included). Iteration is in
// sorted key order so the decision log is byte-identical across runs.
func (g *Guard) EndOfDay(day int) []Decision {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	mark := 0
	for i := len(g.log) - 1; i >= 0; i-- {
		if g.log[i].Day != day {
			mark = i + 1
			break
		}
	}

	sigs := make([]signature.Sig, 0, len(g.breakers))
	for s := range g.breakers {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	for _, s := range sigs {
		b := g.breakers[s]
		switch b.state {
		case BreakerOpen:
			if !b.forced && day-b.openedDay >= g.cfg.CooldownDays {
				b.state = BreakerHalfOpen
				b.probeOK = 0
				g.logLocked(Decision{
					Day: day, Kind: "breaker-halfopen", Key: s.Short(),
					Detail: fmt.Sprintf("cooldown over after %d days; probing %.0f%% of jobs",
						day-b.openedDay, g.cfg.ProbeFraction*100),
				})
			}
		case BreakerHalfOpen:
			if b.probeOK >= g.cfg.ProbeSuccesses {
				b.state = BreakerClosed
				g.mCloses.Inc()
				g.logLocked(Decision{
					Day: day, Kind: "breaker-close", Key: s.Short(),
					Detail: fmt.Sprintf("%d clean probes; reuse restored", b.probeOK),
				})
			}
		}
		b.dayMatches, b.dayFallbacks = 0, 0
	}

	vcs := make([]string, 0, len(g.vcs))
	for vc := range g.vcs {
		vcs = append(vcs, vc)
	}
	sort.Strings(vcs)
	for _, vc := range vcs {
		v := g.vcs[vc]
		switch v.state {
		case VCActive:
			// Sample the day's health series only while active and serving
			// jobs: killed/ramping days are structurally different and must
			// not pollute the delta references the watchdog compares against.
			if v.dayJobs > 0 {
				hit := float64(v.dayMatches) / float64(v.dayJobs)
				v.series[SeriesVCHitRate].Append(day, hit)
				v.series[SeriesVCFallbacks].Append(day, float64(v.dayFallbacks))
				v.series[SeriesVCLatency].Append(day, v.dayLatency)
			}
			alerts := g.dog.Evaluate(day, v.series)
			if len(alerts) == 0 {
				v.alertDays = 0
				break
			}
			names := make([]string, len(alerts))
			for i, a := range alerts {
				names[i] = a.Rule
			}
			detail := strings.Join(names, ",")
			g.logLocked(Decision{Day: day, Kind: "vc-alert", Key: vc, Detail: detail})
			if g.cfg.Flight.Enabled && !v.pinned && g.assignLocked(vc) == g.cfg.Flight.Treatment {
				// First suspect the flighted policy: roll the VC back to the
				// control selector and pin it there. The kill counter is not
				// advanced — the control arm gets a fresh chance first.
				v.pinned = true
				v.alertDays = 0
				g.mRollbacks.Inc()
				g.logLocked(Decision{
					Day: day, Kind: "flight-rollback", Key: vc,
					Detail: fmt.Sprintf("arm %q rolled back to control %q and pinned (%s)",
						g.cfg.Flight.Treatment, g.cfg.Flight.Control, detail),
				})
				break
			}
			v.alertDays++
			if v.alertDays >= g.cfg.KillAlertDays {
				g.killLocked(day, vc, v, detail, false)
			}
		case VCKilled:
			if !v.forcedKill && day-v.killedDay >= g.cfg.ReenableDays {
				v.state = VCRamping
				v.rampStage = 0
				v.rampSince = day
				g.logLocked(Decision{
					Day: day, Kind: "vc-ramp", Key: vc,
					Detail: fmt.Sprintf("quiet for %d days; re-enabling %.0f%% of jobs",
						day-v.killedDay, g.cfg.RampFractions[0]*100),
				})
			}
		case VCRamping:
			// During the ramp only the fallback-spike rule judges: hit-rate
			// and latency references are meaningless at 1% admission.
			if float64(v.dayFallbacks) > g.cfg.VCSLO.withDefaults().FallbackSpikeMax {
				g.killLocked(day, vc, v, fmt.Sprintf("ramp aborted: %d fallbacks", v.dayFallbacks), true)
				break
			}
			if day-v.rampSince >= g.cfg.RampStageDays {
				if v.rampStage+1 < len(g.cfg.RampFractions) {
					v.rampStage++
					v.rampSince = day
					g.logLocked(Decision{
						Day: day, Kind: "vc-ramp", Key: vc,
						Detail: fmt.Sprintf("stage %d: %.0f%% of jobs",
							v.rampStage, g.cfg.RampFractions[v.rampStage]*100),
					})
				} else {
					v.state = VCActive
					v.alertDays = 0
					g.resetSeriesLocked(v)
					g.mRestores.Inc()
					g.logLocked(Decision{
						Day: day, Kind: "vc-restore", Key: vc,
						Detail: "ramp complete; full reuse restored",
					})
				}
			}
		}
		v.dayJobs, v.dayMatches, v.dayFallbacks, v.dayDenied, v.dayLatency = 0, 0, 0, 0, 0
	}

	g.sampleGaugesLocked()
	return append([]Decision(nil), g.log[mark:]...)
}

// killLocked trips the kill switch. Caller holds g.mu.
func (g *Guard) killLocked(day int, vc string, v *vcGuard, detail string, rekill bool) {
	v.state = VCKilled
	v.killedDay = day
	v.alertDays = 0
	v.kills++
	g.resetSeriesLocked(v)
	g.mKills.Inc()
	kind := "vc-kill"
	if rekill {
		kind = "vc-rekill"
	}
	g.logLocked(Decision{
		Day: day, Kind: kind, Key: vc,
		Detail: fmt.Sprintf("reuse disabled for VC (%s); cooldown %d days", detail, g.cfg.ReenableDays),
	})
}

// resetSeriesLocked gives a VC fresh health series — a kill or restore makes
// every subsequent sample structurally different from the history, so stale
// references must not judge the new regime. Caller holds g.mu.
func (g *Guard) resetSeriesLocked(v *vcGuard) {
	v.series = map[string]*telemetry.Series{
		SeriesVCHitRate:   telemetry.NewSeries(SeriesVCHitRate, 64),
		SeriesVCFallbacks: telemetry.NewSeries(SeriesVCFallbacks, 64),
		SeriesVCLatency:   telemetry.NewSeries(SeriesVCLatency, 64),
	}
}

// assignLocked computes the VC's flight arm by seeded hash. Caller holds g.mu.
func (g *Guard) assignLocked(vc string) string {
	if fault.Hash01(g.cfg.Seed, "guard.flight", vc) < g.cfg.Flight.TreatmentFraction {
		return g.cfg.Flight.Treatment
	}
	return g.cfg.Flight.Control
}

// PolicyFor returns the view-selection policy name for a VC: "" when
// flighting is off (caller keeps its default selector), the control policy
// when the VC is pinned by a rollback, otherwise the seeded-hash assignment.
func (g *Guard) PolicyFor(vc string) string {
	if g == nil || !g.cfg.Flight.Enabled {
		return ""
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if v, ok := g.vcs[vc]; ok && v.pinned {
		return g.cfg.Flight.Control
	}
	return g.assignLocked(vc)
}

// sampleGaugesLocked refreshes the registry gauges. Caller holds g.mu.
func (g *Guard) sampleGaugesLocked() {
	open, killed := 0, 0
	for _, b := range g.breakers {
		if b.state != BreakerClosed {
			open++
		}
	}
	for _, v := range g.vcs {
		if v.state != VCActive {
			killed++
		}
	}
	g.gOpen.Set(float64(open))
	g.gKilled.Set(float64(killed))
}

// Sample writes the guard's day-boundary gauges into a telemetry sample map
// (only called when a guard exists, so guard-free telemetry is unchanged).
func (g *Guard) Sample(m map[string]float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	open, half, killed, ramping, pinned := 0, 0, 0, 0, 0
	for _, b := range g.breakers {
		switch b.state {
		case BreakerOpen:
			open++
		case BreakerHalfOpen:
			half++
		}
	}
	for _, v := range g.vcs {
		switch v.state {
		case VCKilled:
			killed++
		case VCRamping:
			ramping++
		}
		if v.pinned {
			pinned++
		}
	}
	m["guard_breakers_open"] = float64(open)
	m["guard_breakers_halfopen"] = float64(half)
	m["guard_vcs_killed"] = float64(killed)
	m["guard_vcs_ramping"] = float64(ramping)
	m["guard_flights_pinned"] = float64(pinned)
	m["guard_decisions"] = float64(len(g.log))
}

// --- Admin / introspection -------------------------------------------------

// BreakerInfo is one breaker's snapshot row.
type BreakerInfo struct {
	Sig            string  `json:"sig"`
	VC             string  `json:"vc"`
	State          string  `json:"state"`
	TotalMatches   int     `json:"total_matches"`
	TotalFallbacks int     `json:"total_fallbacks"`
	SavedSec       float64 `json:"saved_sec"`
	LostSec        float64 `json:"lost_sec"`
	Trips          int     `json:"trips"`
	OpenedDay      int     `json:"opened_day,omitempty"`
}

// VCInfo is one VC's snapshot row.
type VCInfo struct {
	VC         string `json:"vc"`
	State      string `json:"state"`
	RampStage  int    `json:"ramp_stage,omitempty"`
	Kills      int    `json:"kills"`
	DeniedJobs int    `json:"denied_jobs"`
	Policy     string `json:"policy,omitempty"`
	Pinned     bool   `json:"pinned,omitempty"`
}

// Snapshot is the full deterministic guard state for the admin plane.
type Snapshot struct {
	Breakers  []BreakerInfo `json:"breakers"`
	VCs       []VCInfo      `json:"vcs"`
	Decisions []string      `json:"decisions"`
}

// Snapshot renders the guard state, sorted, for inspection.
func (g *Guard) Snapshot() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var snap Snapshot
	sigs := make([]signature.Sig, 0, len(g.breakers))
	for s := range g.breakers {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	for _, s := range sigs {
		b := g.breakers[s]
		info := BreakerInfo{
			Sig: string(s), VC: b.vc, State: b.state.String(),
			TotalMatches: b.totalMatches, TotalFallbacks: b.totalFallbacks,
			SavedSec: b.savedSec, LostSec: b.lostSec, Trips: b.trips,
		}
		if b.state != BreakerClosed {
			info.OpenedDay = b.openedDay
		}
		snap.Breakers = append(snap.Breakers, info)
	}
	vcs := make([]string, 0, len(g.vcs))
	for vc := range g.vcs {
		vcs = append(vcs, vc)
	}
	sort.Strings(vcs)
	for _, vc := range vcs {
		v := g.vcs[vc]
		info := VCInfo{
			VC: vc, State: v.state.String(), Kills: v.kills,
			DeniedJobs: v.deniedJobs, Pinned: v.pinned,
		}
		if v.state == VCRamping {
			info.RampStage = v.rampStage
		}
		if g.cfg.Flight.Enabled {
			if v.pinned {
				info.Policy = g.cfg.Flight.Control
			} else {
				info.Policy = g.assignLocked(vc)
			}
		}
		snap.VCs = append(snap.VCs, info)
	}
	for _, d := range g.log {
		snap.Decisions = append(snap.Decisions, d.String())
	}
	return snap
}

// DecisionLog returns a copy of the full decision log.
func (g *Guard) DecisionLog() []Decision {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Decision(nil), g.log...)
}

// RenderLog renders the decision log as one newline-joined string — the unit
// the determinism tests compare byte for byte.
func (g *Guard) RenderLog() string {
	if g == nil {
		return ""
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	lines := make([]string, len(g.log))
	for i, d := range g.log {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}

// TripBreaker force-opens a signature's breaker (admin plane). A forced
// breaker never half-opens on its own; ResetBreaker releases it.
func (g *Guard) TripBreaker(day int, recurring signature.Sig) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.breakers[recurring]
	if !ok {
		b = &breaker{}
		g.breakers[recurring] = b
	}
	b.state = BreakerOpen
	b.openedDay = day
	b.forced = true
	b.trips++
	g.mTrips.Inc()
	g.logLocked(Decision{Day: day, Kind: "admin-trip", Key: recurring.Short(), Detail: "breaker forced open"})
	g.sampleGaugesLocked()
}

// ResetBreaker force-closes a signature's breaker (admin plane).
func (g *Guard) ResetBreaker(day int, recurring signature.Sig) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if b, ok := g.breakers[recurring]; ok {
		b.state = BreakerClosed
		b.forced = false
		b.probeOK = 0
		g.logLocked(Decision{Day: day, Kind: "admin-reset", Key: recurring.Short(), Detail: "breaker forced closed"})
	}
	g.sampleGaugesLocked()
}

// KillVC force-trips a VC's kill switch (admin plane). A forced kill never
// ramps back on its own; RestoreVC releases it.
func (g *Guard) KillVC(day int, vc string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.vcLocked(vc)
	v.state = VCKilled
	v.killedDay = day
	v.forcedKill = true
	v.kills++
	g.resetSeriesLocked(v)
	g.mKills.Inc()
	g.logLocked(Decision{Day: day, Kind: "admin-kill", Key: vc, Detail: "reuse forced off for VC"})
	g.sampleGaugesLocked()
}

// RestoreVC force-restores a VC to full reuse (admin plane), skipping the
// ramp, and unpins its flight assignment.
func (g *Guard) RestoreVC(day int, vc string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.vcLocked(vc)
	v.state = VCActive
	v.forcedKill = false
	v.alertDays = 0
	v.pinned = false
	g.resetSeriesLocked(v)
	g.mRestores.Inc()
	g.logLocked(Decision{Day: day, Kind: "admin-restore", Key: vc, Detail: "reuse forced on for VC"})
	g.sampleGaugesLocked()
}
