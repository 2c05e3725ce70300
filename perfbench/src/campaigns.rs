//! `campaigns`: the 49-fault switch-level and 184-fault MOS single-fault
//! campaigns, collapsed and triaged, at `repro faults --fast` settings.
//! Its traced run also runs the paper's experiments once (`figures`).

use std::collections::BTreeMap;

use mssim::faults::LabeledFault;
use mssim::prelude::{
    collapse_faults, lint, plan_key, Circuit, CollapseMember, MemoryRecorder, NodeId, Observer,
    Session, Transient, Waveform,
};
use mssim::telemetry::Event;
use pwm_perceptron::faults::{
    switch_adder_campaign_observed, switch_adder_triage, weighted_adder_campaign_observed,
    weighted_adder_triage, CampaignConfig, CampaignReport,
};
use pwmcell::faults::{switch_adder_universe, weighted_adder_universe};
use pwmcell::{AdderSpec, SwitchAdder, Technology, WeightedAdder};

use crate::metrics::Outcome;
use crate::{figures, reference, spans, stats, Timed, Units};

/// Campaign weights and duties, as in `repro faults`.
const WEIGHTS: [u32; 3] = [7, 5, 3];
const DUTIES: [f64; 3] = [0.30, 0.50, 0.70];

/// Everything a job needs before its first measured call.
pub struct Setup {
    tech: Technology,
    config: CampaignConfig,
    recorded: BTreeMap<(String, String), String>,
}

/// `repro faults --fast` settings, collapse and triage on.
pub fn setup() -> Setup {
    Setup {
        tech: Technology::umc65_like(),
        config: CampaignConfig {
            collapse: true,
            triage: true,
            periods: 16,
            steps_per_period: 60,
            avg_periods: 2,
            ..CampaignConfig::default()
        },
        recorded: reference::campaigns(),
    }
}

/// Keeps the wall time of every simulated fault (the sweep driver's
/// `SweepPoint` events); the campaign passes no observer into its
/// transients, so this costs one clock read per fault.
#[derive(Default)]
struct FaultTimes(Vec<f64>);

impl Observer for FaultTimes {
    fn event(&mut self, event: &Event) {
        if let Event::SweepPoint { wall_ns, .. } = event {
            self.0.push(*wall_ns as f64 * 1e-3);
        }
    }
}

/// Both campaign reports of one job.
pub struct Reports {
    /// The switch-level campaign.
    pub switch: CampaignReport,
    /// The transistor-level (limited-mode MOS) campaign.
    pub mos: CampaignReport,
}

/// Runs both campaigns, checking every verdict class against the record.
fn job(s: &Setup, out: &mut Outcome, obs: &mut dyn Observer) -> Reports {
    let spec = AdderSpec::paper_3x3();
    let switch = spans::span("campaign.switch", None, || {
        switch_adder_campaign_observed(&s.tech, spec, &WEIGHTS, &DUTIES, &s.config, obs)
    })
    .expect("the golden switch-level adder simulates");
    let mos = spans::span("campaign.mos", None, || {
        weighted_adder_campaign_observed(&s.tech, spec, &WEIGHTS, &DUTIES, &s.config, obs)
    })
    .expect("the golden MOS adder simulates");
    for (campaign, report) in [("switch", &switch), ("mos", &mos)] {
        for o in &report.outcomes {
            let want = s.recorded.get(&(campaign.to_string(), o.label.clone()));
            out.check(want.map(String::as_str) == Some(o.class.tag()));
        }
    }
    Reports { switch, mos }
}

/// The untraced run: repeats the job while time remains.
pub fn measure(s: &Setup, seconds: f64, jobs: &mut Units, out: &mut Outcome) {
    jobs.repeat(seconds, |jobs| {
        let before = out.attempted;
        let mut times = FaultTimes::default();
        let timed = Timed::run(|| job(s, out, &mut times));
        let verdicts = (out.attempted - before) as f64;
        jobs.add(timed.wall, timed.cpu, verdicts, &times.0);
    });
}

/// A campaign fixture rebuilt as `core::faults` builds it.
struct Fixture {
    ckt: Circuit,
    universe: Vec<LabeledFault>,
    limited: bool,
}

fn fixtures(s: &Setup) -> [Fixture; 2] {
    let spec = AdderSpec::paper_3x3();
    let (vdd, f) = (s.tech.vdd.value(), s.config.frequency);
    let stimulate = |ckt: &mut Circuit, inputs: &[NodeId]| {
        for (i, &d) in DUTIES.iter().enumerate() {
            let name = format!("VIN{i}");
            ckt.vsource(&name, inputs[i], Circuit::GND, Waveform::pwm(vdd, f, d));
        }
    };
    let mut ckt = Circuit::new();
    let rail = ckt.node("vdd");
    ckt.vsource("VDD", rail, Circuit::GND, Waveform::dc(vdd));
    let adder = SwitchAdder::build(&mut ckt, &s.tech, "add", rail, &WEIGHTS, spec);
    stimulate(&mut ckt, &adder.inputs);
    let universe = switch_adder_universe(&ckt, &adder, &s.config.universe);
    let switch = Fixture {
        ckt,
        universe,
        limited: false,
    };
    let mut ckt = Circuit::new();
    let rail = ckt.node("vdd");
    ckt.vsource("VDD", rail, Circuit::GND, Waveform::dc(vdd));
    let adder = WeightedAdder::build(&mut ckt, &s.tech, "add", rail, &WEIGHTS, spec);
    stimulate(&mut ckt, &adder.inputs);
    let universe = weighted_adder_universe(&ckt, &adder, &s.config.universe);
    let mos = Fixture {
        ckt,
        universe,
        limited: true,
    };
    [switch, mos]
}

/// Replays every fault transient the live campaign simulated (one
/// representative per plan-equivalence class that triage left open)
/// through `lint`, `plan_key` and an observed `transient_rescued`; the
/// golden netlists also get a DC operating point. Returns the number of
/// faults replayed.
fn replay(s: &Setup, reports: &Reports, rec: &mut MemoryRecorder) -> u64 {
    let c = &s.config;
    let period = 1.0 / c.frequency;
    let tran = Transient::new(
        period / c.steps_per_period as f64,
        c.periods as f64 * period,
    )
    .use_initial_conditions();
    let mut replayed = 0;
    for (fx, report) in fixtures(s).iter().zip([&reports.switch, &reports.mos]) {
        spans::span("dcop", None, || {
            let _ = Session::new(&fx.ckt)
                .with_device_limiting(fx.limited)
                .observe(rec)
                .dc_operating_point();
        });
        let collapse = collapse_faults(&fx.ckt, &fx.universe);
        for (i, lf) in fx.universe.iter().enumerate() {
            let open = report.outcomes[i].static_verdict.is_none();
            if !matches!(collapse.members[i], CollapseMember::Representative) || !open {
                continue;
            }
            let Ok(faulty) = lf.fault.apply(&fx.ckt) else {
                continue;
            };
            replayed += 1;
            spans::span("session.lint", None, || std::hint::black_box(lint(&faulty)));
            spans::span("plan.compile", None, || {
                std::hint::black_box(plan_key(&faulty))
            });
            spans::span("tran", None, || {
                let _ = Session::new(&faulty)
                    .with_device_limiting(fx.limited)
                    .observe(rec)
                    .transient_rescued(&tran, &c.rescue);
            });
        }
    }
    replayed
}

/// The traced run: one untraced job, one traced job, the zero-transient
/// triage pass, then the fault replay for the solver-layer split. The
/// paper's experiments (`figures`), the other batch path through the same
/// transient stack, run once after it, each timed in its own span.
pub fn trace(s: &Setup, experiments: &figures::Setup, out: &mut Outcome) {
    let untraced = Timed::run(|| job(s, out, &mut FaultTimes::default()));
    spans::install();
    let mut live = MemoryRecorder::new();
    let traced = Timed::run(|| spans::span("job", None, || job(s, out, &mut live)));
    let spec = AdderSpec::paper_3x3();
    spans::span("analyze.triage", None, || {
        let sw = switch_adder_triage(&s.tech, spec, &WEIGHTS, &DUTIES, &s.config);
        let mos = weighted_adder_triage(&s.tech, spec, &WEIGHTS, &DUTIES, &s.config);
        out.check(sw.is_ok() && mos.is_ok());
    });
    let mut rec = MemoryRecorder::new();
    let replayed = replay(s, &traced.value, &mut rec);
    figures::trace(experiments, out);
    let all = spans::take();
    let totals = spans::totals(&all);
    figures::report(&totals, out);

    // How faithfully the replay mirrors the campaign is a property of the
    // benchmark, not an answer of the program: a note, not a check.
    let simulated = live.counter_value("sweep.points");
    out.note("faults_replayed", format!("{replayed} of {simulated}"));
    out.count("faults.simulated", simulated);
    let fault_ms: Vec<f64> = live
        .histogram_values("sweep.wall_ns")
        .iter()
        .map(|ns| ns * 1e-6)
        .collect();
    let mut sorted = fault_ms.clone();
    sorted.sort_by(f64::total_cmp);
    out.metric(
        "faults.transient_ms_p50",
        stats::median(&fault_ms),
        fault_ms.len(),
    );
    out.metric(
        "faults.transient_ms_p99",
        stats::percentile_sorted(&sorted, 99.0),
        fault_ms.len(),
    );
    let triage_ns = totals["analyze.triage"].total_ns as f64;
    out.metric("analyze.triage_ms", triage_ns * 1e-6, 1);

    // The job splits into the campaigns' own triage (timed again by the
    // separate pass) and the per-fault sweep points; the rest is golden
    // transients, collapse and bookkeeping.
    let job_ns = totals["job"].total_ns as f64;
    let sweep_ns: f64 = fault_ms.iter().sum::<f64>() * 1e6;
    let remainder = (job_ns - sweep_ns - triage_ns).max(0.0);
    out.metric("trace.unattributed_pct", 100.0 * remainder / job_ns, 1);
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced.wall - untraced.wall) / untraced.wall,
        2,
    );
    crate::report_replay(out, &totals, &rec, sweep_ns);
    crate::write_spans(&all);
}

/// Reference lines `campaign<TAB>label<TAB>class` of one job.
pub fn record(s: &Setup) -> Vec<String> {
    let mut scratch = Outcome::default();
    let reports = job(s, &mut scratch, &mut FaultTimes::default());
    [("switch", &reports.switch), ("mos", &reports.mos)]
        .into_iter()
        .flat_map(|(campaign, report)| {
            report
                .outcomes
                .iter()
                .map(move |o| format!("{campaign}\t{}\t{}", o.label, o.class.tag()))
        })
        .collect()
}
