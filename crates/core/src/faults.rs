//! Fault-injection campaigns — the paper's "Robust" claim under hard
//! defects instead of parametric variation.
//!
//! [`crate::robustness`] asks how the perceptron behaves when every
//! device drifts a little; this module asks what happens when one device
//! breaks outright. A campaign takes the golden switch-level adder
//! netlist, enumerates its single-fault universe (via
//! [`pwmcell::faults`]), simulates every faulty copy under the
//! convergence-rescue ladder, and classifies each outcome against the
//! paper's Eq. 2 analytic output:
//!
//! * [`FaultClass::Masked`] — the defect is invisible at the output,
//! * [`FaultClass::Degraded`] — measurable error, still the right side
//!   of the decision band,
//! * [`FaultClass::FunctionalFail`] — the analog sum is wrong enough to
//!   flip decisions,
//! * [`FaultClass::SolverFail`] — the simulation itself could not
//!   deliver a settled output (a [`mssim`] `Partial` outcome or a hard
//!   solver error).
//!
//! Faults fan out over [`mssim::sweep::sweep`], which preserves input
//! order, and the universe enumeration is insertion-ordered, so a
//! campaign is deterministic: same netlist, same config, same report.
//!
//! With [`CampaignConfig::collapse`] enabled, the static fault
//! collapsing of [`mssim::analyze`] first partitions the universe by
//! compiled-plan identity: faults whose stamped plans are bitwise
//! indistinguishable from the golden netlist replicate the golden
//! verdict, and faults indistinguishable from each other share one
//! representative transient. Because equal plan keys guarantee bitwise
//! identical transients, the collapsed report's outcomes are
//! bitwise identical to the uncollapsed ones — only fewer transients
//! run.
//!
//! With [`CampaignConfig::triage`] enabled, a *static triage tier* runs
//! between collapsing and simulation: each class representative's
//! faulted netlist is pushed through the guaranteed interval solver
//! ([`mssim::analyze::triage_circuit`]), and a class whose settled-output
//! enclosure certifies as `GuaranteedMasked` or `GuaranteedFail` against
//! the Eq. 2 bands is classified right there — only the
//! `NeedsSimulation` bucket reaches the transient/rescue pipeline.
//! Statically-resolved rows carry their verdict and enclosure in
//! [`FaultOutcome::static_verdict`] / [`FaultOutcome::enclosure`], and
//! the certified class tag is the one a transient would have produced
//! (the soundness proptests and the CI contradiction gate check exactly
//! that).

use mssim::faults::UniverseConfig;
use mssim::prelude::{
    collapse_faults, triage_circuit, Circuit, CollapseMember, ElementId, Error as SimError,
    LabeledFault, NodeId, Ranges, RescuePolicy, StaticVerdict, TransientOutcome, TriageVerdict,
    VerdictBands, Waveform,
};
use mssim::session::LimitOpts;
use mssim::sweep;
use mssim::telemetry::{dispatch, Event, Observer};
use pwmcell::faults::{switch_adder_universe, weighted_adder_universe};
use pwmcell::{measure_periodic, AdderSpec, PeriodicPlan, SwitchAdder, Technology, WeightedAdder};

use crate::error::CoreError;
use crate::eval::{AnalyticEvaluator, Evaluator};
use crate::infer::Query;
use crate::robustness::McSummary;
use crate::weight::WeightVector;

/// Outcome class of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultClass {
    /// Output within `masked_epsilon` of the analytic Eq. 2 value.
    Masked,
    /// Output off by more than `masked_epsilon` but within
    /// `fail_epsilon` — degraded yet plausibly decision-safe.
    Degraded {
        /// Absolute output error in volts.
        error_v: f64,
    },
    /// Output error beyond `fail_epsilon`: the analog sum is wrong.
    FunctionalFail {
        /// Absolute output error in volts.
        error_v: f64,
    },
    /// No settled output: the rescue ladder degraded to a partial
    /// waveform, or the solver failed outright.
    SolverFail {
        /// `true` when the ladder salvaged a partial waveform,
        /// `false` on a hard solver error.
        partial: bool,
    },
}

impl FaultClass {
    /// Machine-readable class tag (stable, used in the exported JSON).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultClass::Masked => "masked",
            FaultClass::Degraded { .. } => "degraded",
            FaultClass::FunctionalFail { .. } => "functional_fail",
            FaultClass::SolverFail { .. } => "solver_fail",
        }
    }
}

/// One row of a campaign report: a fault and what it did.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// The fault's campaign label (`kind:target`).
    pub label: String,
    /// The fault kind tag (`switch_stuck_open`, …).
    pub kind: &'static str,
    /// Settled output voltage, when one was measured.
    pub vout: Option<f64>,
    /// `|vout − analytic|`, when an output was measured.
    pub error_v: Option<f64>,
    /// The verdict.
    pub class: FaultClass,
    /// Rescue-ladder rungs burned while simulating this fault.
    pub rescue_attempts: usize,
    /// Rescue incidents the ladder recovered from.
    pub rescue_recoveries: usize,
    /// Solver error display, for `SolverFail` rows.
    pub error: Option<String>,
    /// Static triage verdict, when the triage tier classified this row
    /// without a transient ([`CampaignConfig::triage`]). `None` on
    /// simulated rows and in non-triaged campaigns.
    pub static_verdict: Option<StaticVerdict>,
    /// Guaranteed Vout enclosure `(lo, hi)` backing a static verdict.
    pub enclosure: Option<(f64, f64)>,
}

/// Knobs of a fault campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// PWM input frequency, hertz. The paper's power-elasticity claim
    /// makes the settled average frequency-independent, so campaigns
    /// default to 50 MHz, where the adder's RC settling (τ ≈ R·Cout)
    /// spans a handful of periods instead of hundreds.
    pub frequency: f64,
    /// Simulated PWM periods per fault.
    pub periods: usize,
    /// Fixed time steps per period.
    pub steps_per_period: usize,
    /// Trailing periods averaged into the settled output.
    pub avg_periods: usize,
    /// Output error below which a fault counts as [`FaultClass::Masked`],
    /// volts.
    pub masked_epsilon: f64,
    /// Output error above which a fault counts as
    /// [`FaultClass::FunctionalFail`], volts.
    pub fail_epsilon: f64,
    /// Convergence-rescue ladder applied to every faulty transient.
    pub rescue: RescuePolicy,
    /// Universe enumeration knobs (drift factors, jitter seed, …).
    pub universe: UniverseConfig,
    /// Statically collapse the fault universe before simulating
    /// ([`mssim::analyze::collapse_faults`]): only one representative
    /// per plan-equivalence class runs a transient, replicas copy its
    /// verdict. Off by default so existing campaigns stay bitwise
    /// reproducible rung for rung; the collapsed outcomes are bitwise
    /// identical either way.
    pub collapse: bool,
    /// Statically triage each plan-equivalence class through the
    /// guaranteed interval solver before simulating: classes certified
    /// `GuaranteedMasked`/`GuaranteedFail` against the Eq. 2 bands skip
    /// the transient entirely. Implies the collapse partition (the
    /// triage tier works per class). Off by default.
    pub triage: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            frequency: 50e6,
            periods: 24,
            steps_per_period: 100,
            avg_periods: 4,
            masked_epsilon: 0.05,
            fail_epsilon: 0.25,
            rescue: RescuePolicy::default(),
            universe: UniverseConfig::default(),
            collapse: false,
            triage: false,
        }
    }
}

/// Static fault-collapsing statistics of one campaign run (present on
/// the report only when [`CampaignConfig::collapse`] was enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollapseStats {
    /// Faults in the enumerated universe.
    pub universe: usize,
    /// Distinct plan-equivalence classes (golden class included when
    /// populated).
    pub classes: usize,
    /// Transients actually simulated (class representatives only).
    pub simulated: usize,
    /// Faults statically indistinguishable from the golden netlist.
    pub golden: usize,
}

/// Static-triage statistics of one campaign run (present on the report
/// only when [`CampaignConfig::triage`] was enabled). Counts are over
/// the whole universe: replicas inherit their representative's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriageStats {
    /// Faults in the enumerated universe.
    pub universe: usize,
    /// Faults certified `GuaranteedMasked` without a transient.
    pub masked: usize,
    /// Faults certified `GuaranteedFail` without a transient.
    pub failed: usize,
    /// Faults left for the transient/rescue pipeline (golden-class rows
    /// included — the golden transient runs regardless).
    pub simulated: usize,
}

impl TriageStats {
    /// Fraction of the universe resolved without simulation.
    pub fn triage_ratio(&self) -> f64 {
        if self.universe == 0 {
            return 0.0;
        }
        (self.masked + self.failed) as f64 / self.universe as f64
    }
}

/// A finished campaign: the references and every fault's verdict, in
/// universe order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Eq. 2 analytic output, the classification reference.
    pub analytic_vout: f64,
    /// Settled output of the fault-free netlist.
    pub golden_vout: f64,
    /// One row per enumerated fault.
    pub outcomes: Vec<FaultOutcome>,
    /// Collapsing statistics, when static collapsing ran.
    pub collapse: Option<CollapseStats>,
    /// Triage statistics, when the static triage tier ran.
    pub triage: Option<TriageStats>,
}

impl CampaignReport {
    /// Number of outcomes in class `tag`.
    pub fn count(&self, tag: &str) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.class.tag() == tag)
            .count()
    }

    /// Distribution of the absolute output error across every fault that
    /// produced a settled output, or `None` when no fault did (routes
    /// through [`McSummary::try_from_samples`], which owns the empty
    /// case).
    pub fn error_summary(&self) -> Option<McSummary> {
        McSummary::try_from_samples(self.outcomes.iter().filter_map(|o| o.error_v).collect())
    }

    /// Total rescue-ladder rungs burned across the whole campaign.
    pub fn rescue_attempts(&self) -> usize {
        self.outcomes.iter().map(|o| o.rescue_attempts).sum()
    }
}

/// Result of simulating one (possibly faulty) netlist. `Clone` so a
/// collapsed campaign can replicate one representative's measurement
/// across its whole equivalence class.
#[derive(Clone)]
struct Measured {
    vout: Option<f64>,
    rescue_attempts: usize,
    rescue_recoveries: usize,
    partial: bool,
    error: Option<String>,
}

/// Trapezoidal mean of `(time, values)` over `[t_from, t_last]`, or
/// `None` when fewer than two samples fall in the window.
fn trailing_average(time: &[f64], values: &[f64], t_from: f64) -> Option<f64> {
    let start = time.iter().position(|&t| t >= t_from)?;
    if start + 1 >= time.len() {
        return None;
    }
    let mut area = 0.0;
    for i in start..time.len() - 1 {
        area += 0.5 * (values[i] + values[i + 1]) * (time[i + 1] - time[i]);
    }
    let span = time[time.len() - 1] - time[start];
    (span > 0.0).then(|| area / span)
}

/// Runs one campaign transient through [`measure_periodic`] under the
/// rescue ladder, in limited MOS mode at [`LimitOpts::default`] (a netlist
/// without MOSFETs runs identically in either mode). The settled output is
/// the [`trailing_average`] from the first sample at or after
/// `t_stop − window_periods·T`; a partial run has none.
fn measure(
    circuit: &Circuit,
    output: NodeId,
    supply: ElementId,
    plan: &PeriodicPlan,
    rescue: &RescuePolicy,
) -> Measured {
    let mode = Some(LimitOpts::default());
    match measure_periodic(circuit, output, supply, plan, mode, Some(rescue)) {
        Ok(run) => {
            let rescues = run.outcome.rescues();
            let (attempts, recoveries) = (rescues.total_attempts(), rescues.recovered());
            let t_avg_from = plan.t_stop - plan.window_periods as f64 * plan.period;
            match run.outcome {
                TransientOutcome::Complete { result, .. } => {
                    let v = result.voltage(output);
                    Measured {
                        vout: trailing_average(result.time(), v.values(), t_avg_from),
                        rescue_attempts: attempts,
                        rescue_recoveries: recoveries,
                        partial: false,
                        error: None,
                    }
                }
                TransientOutcome::Partial { error, .. } => Measured {
                    vout: None,
                    rescue_attempts: attempts,
                    rescue_recoveries: recoveries,
                    partial: true,
                    error: Some(error.to_string()),
                },
            }
        }
        Err(e) => Measured {
            vout: None,
            rescue_attempts: 0,
            rescue_recoveries: 0,
            partial: false,
            error: Some(e.to_string()),
        },
    }
}

fn classify(measured: &Measured, analytic_vout: f64, config: &CampaignConfig) -> FaultClass {
    match measured.vout {
        Some(v) if v.is_finite() => {
            let error_v = (v - analytic_vout).abs();
            if error_v <= config.masked_epsilon {
                FaultClass::Masked
            } else if error_v <= config.fail_epsilon {
                FaultClass::Degraded { error_v }
            } else {
                FaultClass::FunctionalFail { error_v }
            }
        }
        // A non-finite average is a solver artefact, not a circuit verdict.
        Some(_) => FaultClass::SolverFail {
            partial: measured.partial,
        },
        None => FaultClass::SolverFail {
            partial: measured.partial,
        },
    }
}

/// Builds the campaign's switch-level adder testbench and returns it with
/// its supply source.
fn adder_fixture(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    frequency: f64,
) -> Result<(Circuit, ElementId, SwitchAdder), CoreError> {
    if duties.len() != weights.len() {
        return Err(CoreError::DimensionMismatch {
            expected: weights.len(),
            got: duties.len(),
        });
    }
    for &d in duties {
        if !(0.0..=1.0).contains(&d) || !d.is_finite() {
            return Err(CoreError::InvalidDuty { value: d });
        }
    }
    // Re-validate the weights through the shared domain type so the
    // campaign rejects what the netlist builder would panic on.
    WeightVector::new(weights.to_vec(), spec.bits)?;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let supply = ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = SwitchAdder::build(&mut ckt, tech, "add", vdd, weights, spec);
    for (i, &d) in duties.iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), frequency, d),
        );
    }
    Ok((ckt, supply, adder))
}

/// Builds the campaign's transistor-level (Fig. 3) adder testbench and
/// returns it with its supply source.
fn weighted_adder_fixture(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    frequency: f64,
) -> Result<(Circuit, ElementId, WeightedAdder), CoreError> {
    if duties.len() != weights.len() {
        return Err(CoreError::DimensionMismatch {
            expected: weights.len(),
            got: duties.len(),
        });
    }
    for &d in duties {
        if !(0.0..=1.0).contains(&d) || !d.is_finite() {
            return Err(CoreError::InvalidDuty { value: d });
        }
    }
    WeightVector::new(weights.to_vec(), spec.bits)?;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let supply = ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = WeightedAdder::build(&mut ckt, tech, "add", vdd, weights, spec);
    for (i, &d) in duties.iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), frequency, d),
        );
    }
    Ok((ckt, supply, adder))
}

/// Eq.-2 golden reference for a campaign fixture, computed through the
/// same [`Evaluator`] surface the serving engine dispatches to.
fn analytic_reference(
    tech: &Technology,
    duties: &[f64],
    weights: &[u32],
    bits: u32,
) -> Result<f64, CoreError> {
    let query = Query::from_raw(duties, weights, bits)?;
    Ok(AnalyticEvaluator::new(tech.vdd)
        .evaluate(&query)?
        .vout
        .value())
}

/// Everything [`run_campaign_over`] needs that depends on which cell
/// family (switch-level or transistor-level) the campaign targets.
struct CampaignFixture {
    ckt: Circuit,
    output: NodeId,
    supply: ElementId,
    universe: Vec<LabeledFault>,
    analytic_vout: f64,
}

fn run_campaign(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    config: &CampaignConfig,
    observer: Option<&mut dyn Observer>,
) -> Result<CampaignReport, CoreError> {
    let (ckt, supply, adder) = adder_fixture(tech, spec, weights, duties, config.frequency)?;
    let universe = switch_adder_universe(&ckt, &adder, &config.universe);
    let analytic_vout = analytic_reference(tech, duties, weights, spec.bits)?;
    let fixture = CampaignFixture {
        ckt,
        output: adder.output,
        supply,
        universe,
        analytic_vout,
    };
    run_campaign_over(fixture, config, observer)
}

fn run_weighted_campaign(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    config: &CampaignConfig,
    observer: Option<&mut dyn Observer>,
) -> Result<CampaignReport, CoreError> {
    let (ckt, supply, adder) =
        weighted_adder_fixture(tech, spec, weights, duties, config.frequency)?;
    let universe = weighted_adder_universe(&ckt, &adder, &config.universe);
    let analytic_vout = analytic_reference(tech, duties, weights, spec.bits)?;
    let fixture = CampaignFixture {
        ckt,
        output: adder.output,
        supply,
        universe,
        analytic_vout,
    };
    run_campaign_over(fixture, config, observer)
}

/// The campaign's fixed transient: `periods` periods of `steps_per_period`
/// steps, averaged over the trailing `avg_periods`.
fn campaign_plan(config: &CampaignConfig) -> PeriodicPlan {
    let period = 1.0 / config.frequency;
    PeriodicPlan {
        period,
        dt: period / config.steps_per_period as f64,
        t_stop: config.periods as f64 * period,
        window_periods: config.avg_periods,
    }
}

fn run_campaign_over(
    fixture: CampaignFixture,
    config: &CampaignConfig,
    observer: Option<&mut dyn Observer>,
) -> Result<CampaignReport, CoreError> {
    assert!(config.periods > 0, "campaign needs at least one period");
    assert!(
        config.avg_periods > 0 && config.avg_periods <= config.periods,
        "averaging window must fit inside the simulated periods"
    );
    assert!(
        config.masked_epsilon > 0.0 && config.fail_epsilon > config.masked_epsilon,
        "epsilons must satisfy 0 < masked < fail"
    );
    assert!(
        config.frequency > 0.0 && config.frequency.is_finite(),
        "campaign frequency must be positive and finite"
    );
    let CampaignFixture {
        ckt,
        output,
        supply,
        universe,
        analytic_vout,
    } = fixture;

    let plan = campaign_plan(config);
    let golden = measure(&ckt, output, supply, &plan, &config.rescue);
    let golden_vout = golden
        .vout
        .ok_or(CoreError::Simulation(SimError::NonConvergence {
            analysis: "transient",
            time: plan.t_stop,
            iterations: 0,
            stage: "golden",
            attempts: golden.rescue_attempts,
        }))?;

    let measure_fault = |lf: &LabeledFault| match lf.fault.apply(&ckt) {
        Ok(faulty) => measure(&faulty, output, supply, &plan, &config.rescue),
        Err(e) => Measured {
            vout: None,
            rescue_attempts: 0,
            rescue_recoveries: 0,
            partial: false,
            error: Some(e.to_string()),
        },
    };
    let outcome_of = |lf: &LabeledFault, measured: Measured| FaultOutcome {
        label: lf.label.clone(),
        kind: lf.fault.kind(),
        vout: measured.vout,
        error_v: measured.vout.map(|v| (v - analytic_vout).abs()),
        class: classify(&measured, analytic_vout, config),
        rescue_attempts: measured.rescue_attempts,
        rescue_recoveries: measured.rescue_recoveries,
        error: measured.error,
        static_verdict: None,
        enclosure: None,
    };

    // Triage works per plan-equivalence class, so it implies the
    // collapse partition.
    let collapse_on = config.collapse || config.triage;
    if !collapse_on {
        let run_one = |lf: &LabeledFault, _i: usize| outcome_of(lf, measure_fault(lf));
        let outcomes = match observer {
            Some(obs) => sweep::sweep_observed(&universe, obs, run_one),
            None => sweep::sweep(&universe, run_one),
        };
        return Ok(CampaignReport {
            analytic_vout,
            golden_vout,
            outcomes,
            collapse: None,
            triage: None,
        });
    }

    // Static fault collapsing: partition the universe by compiled-plan
    // identity, simulate one representative per class, and replicate its
    // measurement across the class. Equal plan keys replay bit-identical
    // op programs, so the replicated verdicts are bitwise what a full
    // sweep would have produced.
    let collapse = collapse_faults(&ckt, &universe);
    let stats = CollapseStats {
        universe: universe.len(),
        classes: collapse.n_classes,
        simulated: collapse.n_simulated,
        golden: collapse.n_golden,
    };

    // Static triage tier: push each representative's *applied* faulted
    // netlist through the guaranteed interval solver and keep whatever
    // certifies. Point ranges — all interval width comes from waveform
    // hulls and unresolved switch branches of the faulted topology.
    let triage_at: Vec<Option<TriageVerdict>> = if config.triage {
        let bands = VerdictBands {
            center: analytic_vout,
            masked: config.masked_epsilon,
            fail: config.fail_epsilon,
        };
        collapse
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                if !matches!(m, CollapseMember::Representative) {
                    return None;
                }
                // A fault that fails to apply is left for the transient
                // path, which owns the error reporting.
                let faulty = universe[i].fault.apply(&ckt).ok()?;
                Some(triage_circuit(&faulty, output, &Ranges::default(), &bands))
            })
            .collect()
    } else {
        vec![None; universe.len()]
    };
    let certified = |i: usize| {
        triage_at[i]
            .as_ref()
            .map(|t| t.verdict)
            .filter(|v| *v != StaticVerdict::NeedsSimulation)
    };
    let verdict_of = |i: usize| match collapse.members[i] {
        CollapseMember::Golden => None,
        CollapseMember::Representative => certified(i),
        CollapseMember::ReplicaOf(rep) => certified(rep),
    };
    let tstats = config.triage.then(|| {
        let masked = (0..universe.len())
            .filter(|&i| verdict_of(i) == Some(StaticVerdict::GuaranteedMasked))
            .count();
        let failed = (0..universe.len())
            .filter(|&i| verdict_of(i) == Some(StaticVerdict::GuaranteedFail))
            .count();
        TriageStats {
            universe: universe.len(),
            masked,
            failed,
            simulated: universe.len() - masked - failed,
        }
    });

    let rep_indices: Vec<usize> = collapse
        .members
        .iter()
        .enumerate()
        .filter(|&(i, m)| matches!(m, CollapseMember::Representative) && certified(i).is_none())
        .map(|(i, _)| i)
        .collect();
    let run_rep = |&i: &usize, _k: usize| measure_fault(&universe[i]);
    let rep_results = match observer {
        Some(obs) => {
            dispatch(
                obs,
                &Event::FaultCollapse {
                    universe: stats.universe,
                    classes: stats.classes,
                    simulated: stats.simulated,
                    golden: stats.golden,
                },
            );
            if let Some(t) = &tstats {
                dispatch(
                    obs,
                    &Event::FaultTriage {
                        universe: t.universe,
                        masked: t.masked,
                        failed: t.failed,
                        simulated: t.simulated,
                    },
                );
            }
            sweep::sweep_observed(&rep_indices, obs, run_rep)
        }
        None => sweep::sweep(&rep_indices, run_rep),
    };
    let mut measured_at: Vec<Option<Measured>> = vec![None; universe.len()];
    for (&i, m) in rep_indices.iter().zip(rep_results) {
        measured_at[i] = Some(m);
    }
    // A statically-certified class never ran a transient: its rows carry
    // the guaranteed verdict and enclosure instead of a measurement. The
    // class tag is the one the transient would have produced — certified
    // masked is `Masked`, certified fail is `FunctionalFail` with the
    // *proven lower bound* of the output error.
    let static_outcome = |lf: &LabeledFault, t: &TriageVerdict| {
        let class = match t.verdict {
            StaticVerdict::GuaranteedMasked => FaultClass::Masked,
            StaticVerdict::GuaranteedFail => FaultClass::FunctionalFail {
                error_v: t.error.map(|e| e.lo).unwrap_or(f64::INFINITY),
            },
            StaticVerdict::NeedsSimulation => unreachable!("certified classes only"),
        };
        FaultOutcome {
            label: lf.label.clone(),
            kind: lf.fault.kind(),
            vout: None,
            error_v: None,
            class,
            rescue_attempts: 0,
            rescue_recoveries: 0,
            error: None,
            static_verdict: Some(t.verdict),
            enclosure: t.vout.map(|iv| (iv.lo, iv.hi)),
        }
    };
    let outcomes = universe
        .iter()
        .enumerate()
        .map(|(i, lf)| {
            let rep = match collapse.members[i] {
                CollapseMember::Golden => return outcome_of(lf, golden.clone()),
                CollapseMember::Representative => i,
                CollapseMember::ReplicaOf(rep) => rep,
            };
            if certified(rep).is_some() {
                let t = triage_at[rep].as_ref().expect("certified class triaged");
                static_outcome(lf, t)
            } else {
                let measured = measured_at[rep]
                    .clone()
                    .expect("uncertified representative was simulated");
                outcome_of(lf, measured)
            }
        })
        .collect();

    Ok(CampaignReport {
        analytic_vout,
        golden_vout,
        outcomes,
        collapse: Some(stats),
        triage: tstats,
    })
}

/// Runs the single-fault campaign over the switch-level weighted adder:
/// enumerates the universe, simulates every faulty netlist in parallel
/// under the rescue ladder, and classifies each settled output against
/// the Eq. 2 analytic value.
///
/// Outcomes come back in universe (netlist insertion) order, so the
/// report is deterministic for a given netlist and config. With
/// [`CampaignConfig::collapse`] set, plan-equivalent faults share one
/// transient and the report carries [`CollapseStats`]; the outcome rows
/// are bitwise identical to an uncollapsed run.
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] / [`CoreError::InvalidDuty`] /
/// [`CoreError::InvalidWeight`] on malformed inputs, and
/// [`CoreError::Simulation`] when the *golden* (fault-free) netlist fails
/// to produce a settled output — individual fault failures are reported
/// as [`FaultClass::SolverFail`] rows, never as errors.
///
/// # Panics
///
/// Panics if `config` is internally inconsistent (zero periods, an
/// averaging window longer than the run, or `fail_epsilon ≤
/// masked_epsilon`).
pub fn switch_adder_campaign(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    config: &CampaignConfig,
) -> Result<CampaignReport, CoreError> {
    run_campaign(tech, spec, weights, duties, config, None)
}

/// [`switch_adder_campaign`] with telemetry: per-fault wall times, worker
/// indices and steal counts are delivered to `observer` via
/// [`mssim::sweep::sweep_observed`]. The report is identical to the
/// unobserved version.
///
/// # Errors
///
/// As for [`switch_adder_campaign`].
///
/// # Panics
///
/// As for [`switch_adder_campaign`].
pub fn switch_adder_campaign_observed(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    config: &CampaignConfig,
    observer: &mut dyn Observer,
) -> Result<CampaignReport, CoreError> {
    run_campaign(tech, spec, weights, duties, config, Some(observer))
}

/// [`switch_adder_campaign`] over the transistor-level (Fig. 3)
/// [`WeightedAdder`] instead of the switch-level cell: MOSFET AND gates
/// under fault, with `mosfet_stuck_open` / `mosfet_stuck_short` rows and
/// gate-to-output bridges joining the universe. Every transient —
/// golden and faulty — runs with MOSFET voltage limiting and device
/// latency enabled, so the campaign stresses the batched limited
/// evaluator the benchmarks ship, under netlists deliberately broken in
/// ways the limiter's region bookkeeping must survive.
///
/// # Errors
///
/// As for [`switch_adder_campaign`].
///
/// # Panics
///
/// As for [`switch_adder_campaign`].
pub fn weighted_adder_campaign(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    config: &CampaignConfig,
) -> Result<CampaignReport, CoreError> {
    run_weighted_campaign(tech, spec, weights, duties, config, None)
}

/// [`weighted_adder_campaign`] with telemetry, mirroring
/// [`switch_adder_campaign_observed`].
///
/// # Errors
///
/// As for [`switch_adder_campaign`].
///
/// # Panics
///
/// As for [`switch_adder_campaign`].
pub fn weighted_adder_campaign_observed(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    config: &CampaignConfig,
    observer: &mut dyn Observer,
) -> Result<CampaignReport, CoreError> {
    run_weighted_campaign(tech, spec, weights, duties, config, Some(observer))
}

/// One row of a triage-only report: a fault's static verdict and the
/// enclosure that backs it, with no transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TriageRow {
    /// The fault's campaign label (`kind:target`).
    pub label: String,
    /// The fault kind tag (`switch_stuck_open`, …).
    pub kind: &'static str,
    /// The static verdict (golden-class rows are `NeedsSimulation`:
    /// they ride the golden transient, which a campaign runs anyway).
    pub verdict: StaticVerdict,
    /// Guaranteed Vout enclosure `(lo, hi)` when one was certified.
    pub enclosure: Option<(f64, f64)>,
    /// Krawczyk contraction bound β of the class's DC system (`None`
    /// for golden-class rows and faults that fail to apply).
    pub beta: Option<f64>,
}

/// A triage-only pass over a fault universe: verdicts and statistics
/// with zero transients. Produced by [`switch_adder_triage`] /
/// [`weighted_adder_triage`], printed by `repro faults --triage-only`.
#[derive(Debug, Clone, PartialEq)]
pub struct TriageReport {
    /// Eq. 2 analytic output, the band center.
    pub analytic_vout: f64,
    /// One row per enumerated fault, in universe order.
    pub rows: Vec<TriageRow>,
    /// The collapse partition triage worked over.
    pub collapse: CollapseStats,
    /// Verdict counts, identical in definition to a triaged campaign's
    /// [`CampaignReport::triage`] stats.
    pub stats: TriageStats,
}

fn run_triage_over(fixture: CampaignFixture, config: &CampaignConfig) -> TriageReport {
    assert!(
        config.masked_epsilon > 0.0 && config.fail_epsilon > config.masked_epsilon,
        "epsilons must satisfy 0 < masked < fail"
    );
    let CampaignFixture {
        ckt,
        output,
        universe,
        analytic_vout,
        ..
    } = fixture;
    let collapse = collapse_faults(&ckt, &universe);
    let cstats = CollapseStats {
        universe: universe.len(),
        classes: collapse.n_classes,
        simulated: collapse.n_simulated,
        golden: collapse.n_golden,
    };
    let bands = VerdictBands {
        center: analytic_vout,
        masked: config.masked_epsilon,
        fail: config.fail_epsilon,
    };
    let triage_at: Vec<Option<TriageVerdict>> = collapse
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if !matches!(m, CollapseMember::Representative) {
                return None;
            }
            let faulty = universe[i].fault.apply(&ckt).ok()?;
            Some(triage_circuit(&faulty, output, &Ranges::default(), &bands))
        })
        .collect();
    let rows: Vec<TriageRow> = universe
        .iter()
        .enumerate()
        .map(|(i, lf)| {
            let rep = match collapse.members[i] {
                CollapseMember::Golden => None,
                CollapseMember::Representative => Some(i),
                CollapseMember::ReplicaOf(rep) => Some(rep),
            };
            let t = rep.and_then(|r| triage_at[r].as_ref());
            TriageRow {
                label: lf.label.clone(),
                kind: lf.fault.kind(),
                verdict: t
                    .map(|t| t.verdict)
                    .unwrap_or(StaticVerdict::NeedsSimulation),
                enclosure: t.and_then(|t| t.vout.map(|iv| (iv.lo, iv.hi))),
                beta: t.map(|t| t.beta),
            }
        })
        .collect();
    let masked = rows
        .iter()
        .filter(|r| r.verdict == StaticVerdict::GuaranteedMasked)
        .count();
    let failed = rows
        .iter()
        .filter(|r| r.verdict == StaticVerdict::GuaranteedFail)
        .count();
    let stats = TriageStats {
        universe: rows.len(),
        masked,
        failed,
        simulated: rows.len() - masked - failed,
    };
    TriageReport {
        analytic_vout,
        rows,
        collapse: cstats,
        stats,
    }
}

/// Triage-only pass over the switch-level adder's single-fault universe:
/// enumerates and collapses the universe, statically triages every class
/// representative, and returns per-fault verdicts — no transient runs,
/// golden included.
///
/// The verdicts and statistics are exactly what a triaged campaign
/// ([`CampaignConfig::triage`]) would resolve statically; only the
/// `NeedsSimulation` rows would go on to simulate.
///
/// # Errors
///
/// As for [`switch_adder_campaign`] on malformed inputs.
///
/// # Panics
///
/// Panics if `fail_epsilon ≤ masked_epsilon`.
pub fn switch_adder_triage(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    config: &CampaignConfig,
) -> Result<TriageReport, CoreError> {
    let (ckt, supply, adder) = adder_fixture(tech, spec, weights, duties, config.frequency)?;
    let universe = switch_adder_universe(&ckt, &adder, &config.universe);
    let analytic_vout = analytic_reference(tech, duties, weights, spec.bits)?;
    Ok(run_triage_over(
        CampaignFixture {
            ckt,
            output: adder.output,
            supply,
            universe,
            analytic_vout,
        },
        config,
    ))
}

/// [`switch_adder_triage`] over the transistor-level (Fig. 3) adder.
///
/// # Errors
///
/// As for [`switch_adder_campaign`] on malformed inputs.
///
/// # Panics
///
/// Panics if `fail_epsilon ≤ masked_epsilon`.
pub fn weighted_adder_triage(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
    config: &CampaignConfig,
) -> Result<TriageReport, CoreError> {
    let (ckt, supply, adder) =
        weighted_adder_fixture(tech, spec, weights, duties, config.frequency)?;
    let universe = weighted_adder_universe(&ckt, &adder, &config.universe);
    let analytic_vout = analytic_reference(tech, duties, weights, spec.bits)?;
    Ok(run_triage_over(
        CampaignFixture {
            ckt,
            output: adder.output,
            supply,
            universe,
            analytic_vout,
        },
        config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> CampaignConfig {
        CampaignConfig {
            periods: 20,
            steps_per_period: 60,
            avg_periods: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn trailing_average_windows() {
        let t = [0.0, 1.0, 2.0, 3.0, 4.0];
        let v = [0.0, 0.0, 2.0, 2.0, 2.0];
        // Whole-trace average: trapezoid over the ramp.
        let a = trailing_average(&t, &v, 0.0).unwrap();
        assert!((a - 1.25).abs() < 1e-12);
        // Settled tail only.
        let b = trailing_average(&t, &v, 2.0).unwrap();
        assert!((b - 2.0).abs() < 1e-12);
        // Window past the data: no verdict.
        assert!(trailing_average(&t, &v, 4.0).is_none());
        assert!(trailing_average(&t, &v, 10.0).is_none());
    }

    #[test]
    fn classification_thresholds() {
        let config = CampaignConfig::default();
        let m = |vout| Measured {
            vout,
            rescue_attempts: 0,
            rescue_recoveries: 0,
            partial: false,
            error: None,
        };
        assert_eq!(classify(&m(Some(1.0)), 1.0, &config), FaultClass::Masked);
        assert!(matches!(
            classify(&m(Some(1.1)), 1.0, &config),
            FaultClass::Degraded { .. }
        ));
        assert!(matches!(
            classify(&m(Some(2.0)), 1.0, &config),
            FaultClass::FunctionalFail { .. }
        ));
        assert!(matches!(
            classify(&m(None), 1.0, &config),
            FaultClass::SolverFail { partial: false }
        ));
        assert!(matches!(
            classify(&m(Some(f64::NAN)), 1.0, &config),
            FaultClass::SolverFail { .. }
        ));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let tech = Technology::umc65_like();
        let config = fast_config();
        assert!(matches!(
            switch_adder_campaign(&tech, AdderSpec::new(2, 3), &[7, 7], &[0.5], &config),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            switch_adder_campaign(&tech, AdderSpec::new(2, 3), &[7, 7], &[0.5, 1.5], &config),
            Err(CoreError::InvalidDuty { .. })
        ));
        assert!(matches!(
            switch_adder_campaign(&tech, AdderSpec::new(2, 3), &[7, 9], &[0.5, 0.5], &config),
            Err(CoreError::InvalidWeight { .. })
        ));
    }

    /// The headline acceptance property: the 3×3 single-fault campaign is
    /// deterministic, classifies every fault, and sees through the
    /// golden netlist (which must be `Masked` against Eq. 2 by
    /// construction).
    #[test]
    fn paper_adder_campaign_classifies_every_fault_deterministically() {
        let tech = Technology::umc65_like();
        let config = fast_config();
        let weights = [7, 5, 3];
        let duties = [0.3, 0.5, 0.7];
        let a = switch_adder_campaign(&tech, AdderSpec::paper_3x3(), &weights, &duties, &config)
            .unwrap();
        assert!(
            (a.golden_vout - a.analytic_vout).abs() <= config.masked_epsilon,
            "golden {} vs analytic {}",
            a.golden_vout,
            a.analytic_vout
        );
        assert!(!a.outcomes.is_empty());
        // Stuck-open on a pull-up of the heaviest input must at least
        // degrade the output; a stuck-closed pull-down fights the bus.
        assert!(
            a.count("masked")
                + a.count("degraded")
                + a.count("functional_fail")
                + a.count("solver_fail")
                == a.outcomes.len(),
            "every outcome is classified"
        );
        assert!(
            a.count("masked") < a.outcomes.len(),
            "a single-fault universe must contain observable faults"
        );
        let b = switch_adder_campaign(&tech, AdderSpec::paper_3x3(), &weights, &duties, &config)
            .unwrap();
        assert_eq!(a, b, "campaign must be deterministic");
    }

    /// A bridge from the heaviest input to the output drives the MOS
    /// adder far from its golden point, where the limited evaluator's
    /// frozen-pivot LU replay runs through many pivot exchanges. Under
    /// the `repro --fast faults` settings its settled output must stay
    /// within the 1e-4 V limited-mode tolerance of exact mode.
    #[test]
    fn limited_mode_tracks_exact_mode_on_a_bridged_mos_adder() {
        let tech = Technology::umc65_like();
        let config = CampaignConfig {
            periods: 16,
            ..fast_config()
        };
        let (ckt, supply, adder) = weighted_adder_fixture(
            &tech,
            AdderSpec::paper_3x3(),
            &[7, 5, 3],
            &[0.3, 0.5, 0.7],
            config.frequency,
        )
        .unwrap();
        let bridge = weighted_adder_universe(&ckt, &adder, &config.universe)
            .into_iter()
            .find(|lf| lf.label == "net_bridge:add_in2~add_out")
            .expect("the universe bridges the heaviest input to the output");
        let faulty = bridge.fault.apply(&ckt).unwrap();
        let plan = campaign_plan(&config);
        let vout = |mode| {
            measure_periodic(
                &faulty,
                adder.output,
                supply,
                &plan,
                mode,
                Some(&config.rescue),
            )
            .and_then(|run| run.measurement)
            .expect("the bridged adder settles")
            .vout
            .value()
        };
        let (exact, limited) = (vout(None), vout(Some(LimitOpts::default())));
        assert!(
            (limited - exact).abs() <= 1e-4,
            "limited {limited} V vs exact {exact} V"
        );
    }

    #[test]
    fn error_summary_routes_through_try_from_samples() {
        let report = CampaignReport {
            analytic_vout: 1.0,
            golden_vout: 1.0,
            outcomes: vec![FaultOutcome {
                label: "x".into(),
                kind: "resistor_open",
                vout: None,
                error_v: None,
                class: FaultClass::SolverFail { partial: false },
                rescue_attempts: 0,
                rescue_recoveries: 0,
                error: Some("boom".into()),
                static_verdict: None,
                enclosure: None,
            }],
            collapse: None,
            triage: None,
        };
        assert!(report.error_summary().is_none(), "no settled outputs");
    }

    /// Static collapsing changes how many transients run, never what
    /// any fault's verdict is: the collapsed 3×3 campaign's outcome rows
    /// are bitwise equal to the full sweep's, while strictly fewer
    /// faults are simulated (the two stuck-open faults on statically-off
    /// pull-ups land in the golden class).
    #[test]
    fn collapsed_campaign_is_bitwise_identical_to_full_sweep() {
        let tech = Technology::umc65_like();
        let config = CampaignConfig {
            periods: 6,
            steps_per_period: 40,
            avg_periods: 1,
            ..CampaignConfig::default()
        };
        let weights = [7, 5, 3];
        let duties = [0.3, 0.5, 0.7];
        let full = switch_adder_campaign(&tech, AdderSpec::paper_3x3(), &weights, &duties, &config)
            .unwrap();
        assert!(full.collapse.is_none(), "collapsing is opt-in");
        let collapsed_config = CampaignConfig {
            collapse: true,
            ..config
        };
        let collapsed = switch_adder_campaign(
            &tech,
            AdderSpec::paper_3x3(),
            &weights,
            &duties,
            &collapsed_config,
        )
        .unwrap();
        assert_eq!(
            full.outcomes, collapsed.outcomes,
            "collapsed verdicts must be bitwise identical to the full sweep"
        );
        assert_eq!(full.analytic_vout, collapsed.analytic_vout);
        assert_eq!(full.golden_vout, collapsed.golden_vout);
        let stats = collapsed.collapse.expect("collapsed run records stats");
        assert_eq!(stats.universe, full.outcomes.len());
        assert!(
            stats.simulated < stats.universe,
            "collapsing must save transients ({} of {})",
            stats.simulated,
            stats.universe
        );
        assert_eq!(stats.golden, 2, "two pull-ups are statically off");
        assert_eq!(stats.universe, stats.simulated + stats.golden);
    }

    /// A collapsed, observed campaign reports the partition through the
    /// telemetry vocabulary before any representative runs.
    #[test]
    fn collapsed_campaign_reports_through_the_observer() {
        use mssim::telemetry::MemoryRecorder;
        let tech = Technology::umc65_like();
        let config = CampaignConfig {
            periods: 6,
            steps_per_period: 40,
            avg_periods: 1,
            collapse: true,
            ..CampaignConfig::default()
        };
        let mut rec = MemoryRecorder::new();
        let report = switch_adder_campaign_observed(
            &tech,
            AdderSpec::new(1, 2),
            &[3],
            &[0.5],
            &config,
            &mut rec,
        )
        .unwrap();
        let stats = report.collapse.unwrap();
        assert_eq!(
            rec.counter_value("collapse.universe"),
            stats.universe as u64
        );
        assert_eq!(
            rec.counter_value("collapse.simulated"),
            stats.simulated as u64
        );
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, Event::FaultCollapse { .. })));
        // Only the representatives fanned out over the sweep.
        assert_eq!(rec.counter_value("sweep.points"), stats.simulated as u64);
    }

    #[test]
    fn observed_campaign_matches_plain() {
        use mssim::telemetry::MemoryRecorder;
        let tech = Technology::umc65_like();
        let config = CampaignConfig {
            periods: 6,
            steps_per_period: 40,
            avg_periods: 1,
            ..CampaignConfig::default()
        };
        let plain =
            switch_adder_campaign(&tech, AdderSpec::new(1, 2), &[3], &[0.5], &config).unwrap();
        let mut rec = MemoryRecorder::new();
        let observed = switch_adder_campaign_observed(
            &tech,
            AdderSpec::new(1, 2),
            &[3],
            &[0.5],
            &config,
            &mut rec,
        )
        .unwrap();
        assert_eq!(plain, observed);
        assert_eq!(
            rec.counter_value("sweep.points"),
            plain.outcomes.len() as u64
        );
    }

    /// The triage acceptance property on the paper's 3×3 universe: every
    /// statically-certified verdict agrees with the fully-simulated class
    /// tag (zero contradictions), and the tier resolves a real share of
    /// the universe without running its transients.
    #[test]
    fn triaged_campaign_never_contradicts_the_full_sweep() {
        let tech = Technology::umc65_like();
        let config = CampaignConfig {
            periods: 6,
            steps_per_period: 40,
            avg_periods: 1,
            ..CampaignConfig::default()
        };
        let weights = [7, 5, 3];
        let duties = [0.3, 0.5, 0.7];
        let full = switch_adder_campaign(&tech, AdderSpec::paper_3x3(), &weights, &duties, &config)
            .unwrap();
        let triaged_config = CampaignConfig {
            triage: true,
            ..config
        };
        let triaged = switch_adder_campaign(
            &tech,
            AdderSpec::paper_3x3(),
            &weights,
            &duties,
            &triaged_config,
        )
        .unwrap();
        let stats = triaged.triage.expect("triaged run records stats");
        assert_eq!(stats.universe, full.outcomes.len());
        assert_eq!(
            stats.universe,
            stats.masked + stats.failed + stats.simulated
        );
        assert!(
            stats.triage_ratio() >= 0.20,
            "triage must statically resolve >= 20% of the switch universe, got {}/{}",
            stats.masked + stats.failed,
            stats.universe
        );
        for (t, f) in triaged.outcomes.iter().zip(&full.outcomes) {
            assert_eq!(t.label, f.label);
            if let Some(v) = t.static_verdict {
                assert_ne!(v, StaticVerdict::NeedsSimulation);
                assert_eq!(
                    t.class.tag(),
                    f.class.tag(),
                    "static verdict contradicts simulation on {}",
                    t.label
                );
                assert!(t.enclosure.is_some(), "certified rows carry an enclosure");
            } else {
                assert_eq!(t.class.tag(), f.class.tag());
            }
        }
        // Triage implies collapsing even when collapse is off.
        assert!(triaged.collapse.is_some());
    }

    /// A triage-only pass runs zero transients, covers the whole
    /// universe, is deterministic, and its statistics match the triaged
    /// campaign's.
    #[test]
    fn triage_only_report_matches_the_triaged_campaign() {
        let tech = Technology::umc65_like();
        let config = CampaignConfig {
            periods: 6,
            steps_per_period: 40,
            avg_periods: 1,
            triage: true,
            ..CampaignConfig::default()
        };
        let weights = [7, 5, 3];
        let duties = [0.3, 0.5, 0.7];
        let only =
            switch_adder_triage(&tech, AdderSpec::paper_3x3(), &weights, &duties, &config).unwrap();
        let campaign =
            switch_adder_campaign(&tech, AdderSpec::paper_3x3(), &weights, &duties, &config)
                .unwrap();
        assert_eq!(only.rows.len(), campaign.outcomes.len());
        assert_eq!(Some(only.stats), campaign.triage);
        assert_eq!(Some(only.collapse), campaign.collapse);
        for (r, o) in only.rows.iter().zip(&campaign.outcomes) {
            assert_eq!(r.label, o.label);
            match o.static_verdict {
                Some(v) => {
                    assert_eq!(r.verdict, v);
                    assert_eq!(r.enclosure, o.enclosure);
                }
                None => assert_eq!(r.verdict, StaticVerdict::NeedsSimulation),
            }
        }
        let again =
            switch_adder_triage(&tech, AdderSpec::paper_3x3(), &weights, &duties, &config).unwrap();
        assert_eq!(only, again, "triage-only pass must be deterministic");
    }

    /// A triaged, observed campaign reports the tier through the
    /// telemetry vocabulary, and only uncertified representatives fan
    /// out over the sweep.
    #[test]
    fn triaged_campaign_reports_through_the_observer() {
        use mssim::telemetry::MemoryRecorder;
        let tech = Technology::umc65_like();
        let config = CampaignConfig {
            periods: 6,
            steps_per_period: 40,
            avg_periods: 1,
            triage: true,
            ..CampaignConfig::default()
        };
        let mut rec = MemoryRecorder::new();
        let report = switch_adder_campaign_observed(
            &tech,
            AdderSpec::paper_3x3(),
            &[7, 5, 3],
            &[0.3, 0.5, 0.7],
            &config,
            &mut rec,
        )
        .unwrap();
        let stats = report.triage.unwrap();
        assert_eq!(rec.counter_value("triage.universe"), stats.universe as u64);
        assert_eq!(rec.counter_value("triage.masked"), stats.masked as u64);
        assert_eq!(rec.counter_value("triage.failed"), stats.failed as u64);
        assert_eq!(
            rec.counter_value("triage.simulated"),
            stats.simulated as u64
        );
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, Event::FaultTriage { .. })));
        let simulated_reps = report
            .outcomes
            .iter()
            .filter(|o| o.static_verdict.is_none())
            .count();
        // Every sweep point is an uncertified representative, so the
        // fan-out stays strictly below the collapse partition's count.
        assert!(rec.counter_value("sweep.points") <= simulated_reps as u64);
        assert!(
            rec.counter_value("sweep.points")
                < report.collapse.unwrap().simulated as u64
                    + u64::from(stats.masked + stats.failed == 0)
        );
    }
}
