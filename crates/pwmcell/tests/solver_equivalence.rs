//! Golden equivalence on the paper's shipped cells, and the work the
//! limited plan saves.
//!
//! Five fixtures run three ways: on the naive reference assembler, on the
//! exact compiled plan and on the limited plan (voltage limiting plus
//! device latency). The exact plan must match the reference within 1e-12
//! and the limited plan within 1e-4 at every probe and sample.
//!
//! The same runs count the work each arm does. The reference factors its
//! Jacobian once per Newton iteration, and the exact plan evaluates every
//! MOSFET on each of those same iterations, so reference work ÷
//! limited-plan work is a deterministic ratio where a wall-clock speedup
//! is a noisy estimate. Each ratio must stay at or above its floor and at
//! or above 0.75 × the ratio its fixture recorded when the bound was set.
//!
//! The exact plan's factorizations replay the pivot sequence and fill-in
//! of an earlier dense elimination unless the replay cannot verify a
//! pivot. The share that replays is held to the same rule, so a change
//! that sends every factorization down the dense pass fails here while
//! every waveform stays bitwise.

use mssim::prelude::*;
use mssim::telemetry::MemoryRecorder;
use pwmcell::{AdderSpec, Inverter, SwitchAdder, Technology, WeightedAdder};

/// Largest deviation of the exact plan from the reference.
const TOL: f64 = 1e-12;

/// Largest deviation of the limited plan from the reference. Limiting and
/// latency relinearize MOSFETs at slightly stale operating points, so the
/// converged waveforms agree to solver tolerance, not bitwise.
const TOL_LIMITED: f64 = 1e-4;

/// Every limited plan must do less work than the reference.
const FLOOR: f64 = 1.0;

/// The transistor-level 3×3 adder's limited plan must factor at least 5×
/// less often than the reference.
const MOS_ADDER_FLOOR: f64 = 5.0;

/// At least half of the exact plan's factorizations must replay.
const REPLAY_FLOOR: f64 = 0.5;

/// A recorded ratio may fall by at most a quarter.
const SLACK: f64 = 0.75;

const DT: f64 = 10e-12;

/// How far the plans strayed from the reference, and the work the three
/// arms did.
struct Divergence {
    /// Largest |exact plan − reference|, volts.
    exact: f64,
    /// Largest |limited plan − reference|, volts.
    limited: f64,
    /// Newton iterations of the reference, one factorization each.
    reference_factorizations: u64,
    limited_factorizations: u64,
    /// MOSFET evaluations of the exact plan, which evaluates every device
    /// on every iteration.
    exact_device_evals: u64,
    limited_device_evals: u64,
    /// Factorizations of the exact plan, and those that ran the dense
    /// pass instead of a replay.
    exact_factorizations: u64,
    exact_pivot_fallbacks: u64,
}

impl Divergence {
    /// Pairs the two deviations with the counters the reference, exact
    /// and limited arms recorded.
    fn new(
        (exact, limited): (f64, f64),
        reference: &MemoryRecorder,
        exact_arm: &MemoryRecorder,
        limited_arm: &MemoryRecorder,
    ) -> Self {
        Divergence {
            exact,
            limited,
            reference_factorizations: reference.counter_value("newton.iterations"),
            limited_factorizations: limited_arm.counter_value("plan.factorizations"),
            exact_device_evals: exact_arm.counter_value("newton.device_evals"),
            limited_device_evals: limited_arm.counter_value("newton.device_evals"),
            exact_factorizations: exact_arm.counter_value("plan.factorizations"),
            exact_pivot_fallbacks: exact_arm.counter_value("plan.pivot_fallbacks"),
        }
    }

    fn assert_within_tolerances(&self, fixture: &str) {
        assert!(
            self.exact <= TOL,
            "{fixture}: exact plan deviates from the reference by {:e}",
            self.exact
        );
        assert!(
            self.limited <= TOL_LIMITED,
            "{fixture}: limited plan deviates from the reference by {:e}",
            self.limited
        );
    }

    /// Reference factorizations ÷ limited-plan factorizations, against
    /// `floor` and the `recorded` (reference, limited) counts.
    fn assert_factorization_ratio(&self, fixture: &str, floor: f64, recorded: (u64, u64)) {
        let counts = (self.reference_factorizations, self.limited_factorizations);
        assert_ratio(fixture, "factorization", counts, floor, recorded);
    }

    /// Exact-plan device evaluations ÷ limited-plan device evaluations,
    /// against `floor` and the `recorded` (exact, limited) counts.
    fn assert_device_eval_ratio(&self, fixture: &str, floor: f64, recorded: (u64, u64)) {
        let counts = (self.exact_device_evals, self.limited_device_evals);
        assert_ratio(fixture, "device-evaluation", counts, floor, recorded);
    }

    /// Replayed ÷ all factorizations of the exact plan, against
    /// `REPLAY_FLOOR` and the `recorded` (replayed, factorizations) counts.
    fn assert_replay_share(&self, fixture: &str, recorded: (u64, u64)) {
        let replayed = self
            .exact_factorizations
            .saturating_sub(self.exact_pivot_fallbacks);
        let counts = (replayed, self.exact_factorizations);
        assert_ratio(fixture, "exact-plan replay", counts, REPLAY_FLOOR, recorded);
    }
}

fn assert_ratio(fixture: &str, work: &str, counts: (u64, u64), floor: f64, recorded: (u64, u64)) {
    let (num, den) = counts;
    assert!(
        num > 0 && den > 0,
        "{fixture}: no {work} work counted ({num} / {den})"
    );
    let ratio = num as f64 / den as f64;
    let bound = floor.max(SLACK * recorded.0 as f64 / recorded.1 as f64);
    assert!(
        ratio >= bound,
        "{fixture}: {work} ratio {num} / {den} = {ratio:.2} is below {bound:.2} \
         (floor {floor}, recorded {} / {})",
        recorded.0,
        recorded.1
    );
}

/// Runs a `steps`-step transient of `ckt` on all three arms and compares
/// every sample of every probe.
fn divergence(ckt: &Circuit, probes: &[NodeId], steps: usize) -> Divergence {
    let tran = Transient::new(DT, steps as f64 * DT).use_initial_conditions();
    let mut reference_rec = MemoryRecorder::new();
    let mut exact_rec = MemoryRecorder::new();
    let mut limited_rec = MemoryRecorder::new();
    let reference = Session::new(ckt)
        .with_reference_solver(true)
        .observe(&mut reference_rec)
        .transient(&tran)
        .expect("reference converges");
    let exact = Session::new(ckt)
        .observe(&mut exact_rec)
        .transient(&tran)
        .expect("exact plan converges");
    let limited = Session::new(ckt)
        .with_device_limiting(true)
        .observe(&mut limited_rec)
        .transient(&tran)
        .expect("limited plan converges");
    let worst = |run: &TransientResult| {
        let mut worst = 0.0f64;
        for &node in probes {
            for (a, b) in run
                .voltage(node)
                .values()
                .iter()
                .zip(reference.voltage(node).values())
            {
                worst = worst.max((a - b).abs());
            }
        }
        worst
    };
    Divergence::new(
        (worst(&exact), worst(&limited)),
        &reference_rec,
        &exact_rec,
        &limited_rec,
    )
}

/// Drives every input of an adder with a PWM source at `tech`'s clock and
/// returns the probe set: output, supply and every input.
fn drive(
    ckt: &mut Circuit,
    tech: &Technology,
    inputs: &[NodeId],
    output: NodeId,
    vdd: NodeId,
    duties: &[f64],
) -> Vec<NodeId> {
    for (i, &duty) in duties.iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), duty),
        );
    }
    let mut probes = vec![output, vdd];
    probes.extend_from_slice(inputs);
    probes
}

/// A switch-level adder of shape `spec` with its probe set.
fn switch_adder(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = SwitchAdder::build(&mut ckt, tech, "add", vdd, weights, spec);
    let probes = drive(&mut ckt, tech, &adder.inputs, adder.output, vdd, duties);
    (ckt, probes)
}

/// Fig. 2 transcoding inverter at the paper's operating point.
#[test]
fn inverter_matches_reference() {
    let tech = Technology::umc65_like();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    ckt.vsource(
        "VIN",
        inp,
        Circuit::GND,
        Waveform::pwm(tech.vdd.value(), tech.frequency.value(), 0.7),
    );
    let inv = Inverter::build(
        &mut ckt,
        &tech,
        "inv",
        inp,
        vdd,
        Some(tech.rout),
        tech.cout_inverter,
    );
    let d = divergence(&ckt, &[inv.output, inp, vdd], 2000);
    d.assert_within_tolerances("inverter");
    d.assert_factorization_ratio("inverter", FLOOR, (3170, 268));
    d.assert_device_eval_ratio("inverter", FLOOR, (6326, 536));
    d.assert_replay_share("inverter", (3157, 3159));
}

/// Switch-level 3×3 adder: its Jacobian is piecewise constant between
/// PWM edges, so the factorization cache carries nearly every step.
#[test]
fn switch_adder3x3_matches_reference() {
    let tech = Technology::umc65_like();
    let (ckt, probes) = switch_adder(
        &tech,
        AdderSpec::paper_3x3(),
        &[7, 7, 7],
        &[0.70, 0.80, 0.90],
    );
    let d = divergence(&ckt, &probes, 2000);
    d.assert_within_tolerances("switch_adder3x3");
    d.assert_factorization_ratio("switch_adder3x3", FLOOR, (4108, 42));
}

/// Transistor-level 3×3 adder (Fig. 3): MOSFET AND cells keep Newton
/// iterating, so this is the plan under nonlinear load.
#[test]
fn mos_adder3x3_matches_reference() {
    let tech = Technology::umc65_like();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = WeightedAdder::build(
        &mut ckt,
        &tech,
        "add",
        vdd,
        &[7, 7, 7],
        AdderSpec::paper_3x3(),
    );
    let probes = drive(
        &mut ckt,
        &tech,
        &adder.inputs,
        adder.output,
        vdd,
        &[0.70, 0.80, 0.90],
    );
    let d = divergence(&ckt, &probes, 500);
    d.assert_within_tolerances("mos_adder3x3");
    d.assert_factorization_ratio("mos_adder3x3", MOS_ADDER_FLOOR, (1195, 184));
    d.assert_device_eval_ratio("mos_adder3x3", MOS_ADDER_FLOOR, (64530, 4173));
    d.assert_replay_share("mos_adder3x3", (1193, 1195));
}

/// Generated 8×8 switch-level adder: larger arrays than the paper's 3×3.
#[test]
fn switch_adder8x8_matches_reference() {
    let tech = Technology::umc65_like();
    let (ckt, probes) = switch_adder(
        &tech,
        AdderSpec::new(8, 8),
        &[255, 170, 129, 100, 77, 64, 31, 9],
        &[0.05, 0.20, 0.35, 0.50, 0.60, 0.75, 0.85, 0.95],
    );
    let d = divergence(&ckt, &probes, 500);
    d.assert_within_tolerances("switch_adder8x8");
    d.assert_factorization_ratio("switch_adder8x8", FLOOR, (1090, 24));
}

/// Inverter voltage-transfer characteristic, a 101-point DC sweep.
#[test]
fn inverter_dc_sweep_matches_reference() {
    let tech = Technology::umc65_like();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let vg = ckt.vsource("VG", g, Circuit::GND, Waveform::dc(0.0));
    ckt.mosfet("MP", out, g, vdd, tech.pmos);
    ckt.mosfet("MN", out, g, Circuit::GND, tech.nmos);
    ckt.resistor("RL", out, Circuit::GND, 10e6);
    let points = mssim::sweep::linspace(0.0, tech.vdd.value(), 101);

    let mut reference_rec = MemoryRecorder::new();
    let mut exact_rec = MemoryRecorder::new();
    let mut limited_rec = MemoryRecorder::new();
    let reference = Session::new(&ckt)
        .with_reference_solver(true)
        .observe(&mut reference_rec)
        .dc_sweep(vg, &points)
        .expect("reference sweep converges");
    let exact = Session::new(&ckt)
        .observe(&mut exact_rec)
        .dc_sweep(vg, &points)
        .expect("exact sweep converges");
    let limited = Session::new(&ckt)
        .with_device_limiting(true)
        .observe(&mut limited_rec)
        .dc_sweep(vg, &points)
        .expect("limited sweep converges");
    let worst = |run: &DcSweepResult| {
        run.transfer(out)
            .iter()
            .zip(reference.transfer(out))
            .map(|(&(_, a), (_, b))| (a - b).abs())
            .fold(0.0f64, f64::max)
    };
    let d = Divergence::new(
        (worst(&exact), worst(&limited)),
        &reference_rec,
        &exact_rec,
        &limited_rec,
    );
    d.assert_within_tolerances("inverter_dc_sweep");
    d.assert_factorization_ratio("inverter_dc_sweep", FLOOR, (281, 144));
    d.assert_device_eval_ratio("inverter_dc_sweep", FLOOR, (562, 287));
}
