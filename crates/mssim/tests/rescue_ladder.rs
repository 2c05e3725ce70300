//! The transient convergence-rescue ladder: forced non-convergence must
//! degrade gracefully — recovered steps or a `Partial` outcome with the
//! waveform-so-far — and every rung must show up in telemetry.

use mssim::prelude::*;
use mssim::telemetry::Event;

/// CMOS inverter driven by a PWM gate signal: nonlinear enough that a
/// starved Newton budget fails at the switching edges.
fn cmos_inverter() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
    ckt.vsource("VIN", inp, Circuit::GND, Waveform::pwm(2.5, 100e6, 0.5));
    ckt.mosfet(
        "MP",
        out,
        inp,
        vdd,
        mssim::elements::MosParams::pmos(865e-9, 1.2e-6),
    );
    ckt.mosfet(
        "MN",
        out,
        inp,
        Circuit::GND,
        mssim::elements::MosParams::nmos(320e-9, 1.2e-6),
    );
    ckt.capacitor("CL", out, Circuit::GND, 1e-13);
    (ckt, out)
}

fn starved_tran() -> Transient {
    Transient::new(1e-10, 100e-9)
        .use_initial_conditions()
        .with_max_iterations(1)
}

/// The exact fixture that makes `Session::transient` abort with
/// `NonConvergence` must, under the rescue ladder, come back as either a
/// fully recovered run or a `Partial` carrying the waveform-so-far —
/// never a hard error.
#[test]
fn forced_nonconvergence_degrades_gracefully() {
    let (ckt, _) = cmos_inverter();
    // Sanity: without the ladder this is a hard failure.
    let err = Session::new(&ckt).transient(&starved_tran()).unwrap_err();
    assert!(matches!(err, Error::NonConvergence { .. }), "{err}");

    let mut rec = MemoryRecorder::new();
    let outcome = Session::new(&ckt)
        .observe(&mut rec)
        .transient_rescued(&starved_tran(), &RescuePolicy::default())
        .expect("the ladder must not surface a hard NonConvergence");

    // Whatever the verdict, the ladder was exercised and reported.
    assert!(
        !outcome.rescues().is_clean(),
        "a starved Newton budget must trigger at least one rescue"
    );
    assert!(outcome.rescues().total_attempts() > 0);
    match &outcome {
        TransientOutcome::Complete { result, rescues } => {
            assert!(result.samples() > 1);
            assert_eq!(rescues.recovered(), rescues.incidents.len());
        }
        TransientOutcome::Partial {
            result,
            rescues,
            error,
        } => {
            // The waveform-so-far is present and time-consistent.
            assert!(result.samples() >= 1);
            let t_last = *result.time().last().unwrap();
            assert!(t_last < 100e-9, "partial run must stop before t_stop");
            // The fatal incident is recorded as unrecovered.
            let last = rescues.incidents.last().unwrap();
            assert!(last.recovered_by.is_none());
            match error {
                Error::NonConvergence {
                    stage, attempts, ..
                } => {
                    assert_eq!(*stage, "rescue");
                    assert_eq!(*attempts, last.attempts);
                }
                other => panic!("partial error must be NonConvergence, got {other}"),
            }
        }
    }

    // Telemetry: every rung tried is an event; the verdict is an event.
    let attempts = rec
        .events()
        .iter()
        .filter(|e| matches!(e, Event::RescueAttempt { .. }))
        .count();
    let outcomes = rec
        .events()
        .iter()
        .filter(|e| matches!(e, Event::RescueOutcome { .. }))
        .count();
    assert_eq!(attempts, outcome.rescues().total_attempts());
    assert_eq!(outcomes, outcome.rescues().incidents.len());
    assert_eq!(rec.counter_value("tran.rescue_attempts"), attempts as u64);
}

/// With a merely tight (not starved) budget the ladder should actually
/// recover: timestep cutting or the BE fallback rescues the switching
/// edges and the run completes end-to-end.
///
/// Budget choice: Newton damping clamps updates to 0.5 V/iteration, so
/// tracking a full 2.5 V input edge inside one 0.1 ns step needs ≥ 5
/// iterations — 4 fails there, while the quiet stretches (started from a
/// converged DC point) fit comfortably. Timestep cutting splits the edge
/// into sub-0.5 V slews, which is exactly what the `dt_cut` rung does.
#[test]
fn tight_budget_is_recovered_to_completion() {
    let (ckt, out) = cmos_inverter();
    let tran = Transient::new(1e-10, 20e-9).with_max_iterations(4);
    let mut rec = MemoryRecorder::new();
    let outcome = Session::new(&ckt)
        .observe(&mut rec)
        .transient_rescued(&tran, &RescuePolicy::default())
        .unwrap();
    match &outcome {
        TransientOutcome::Complete { result, rescues } => {
            // The full horizon was reached and the inverter still
            // inverts: the output swings across the supply.
            let t_last = *result.time().last().unwrap();
            assert!((t_last - 20e-9).abs() < 1e-12);
            let v = result.voltage(out);
            assert!(v.max() > 2.0 && v.min() < 0.5, "inverter must swing");
            // This budget fails without rescue, so the ladder must have
            // fired at least once and won every time.
            assert!(!rescues.is_clean());
            assert_eq!(rescues.recovered(), rescues.incidents.len());
            for i in &rescues.incidents {
                assert!(matches!(
                    i.recovered_by,
                    Some("dt_cut") | Some("be") | Some("gmin")
                ));
            }
        }
        TransientOutcome::Partial { error, .. } => {
            panic!("a 3-iteration budget should be rescuable, got partial: {error}")
        }
    }
    assert!(rec.counter_value("tran.rescue_recoveries") > 0);
    assert_eq!(rec.counter_value("tran.rescue_exhausted"), 0);
}

/// A healthy circuit under a rescue policy is a plain complete run with
/// a clean report and zero rescue telemetry — the ladder costs nothing
/// when nothing fails.
#[test]
fn healthy_run_reports_clean() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
    ckt.resistor("R1", a, b, 1e3);
    ckt.capacitor("C1", b, Circuit::GND, 1e-9);
    let tran = Transient::new(1e-7, 10e-6).use_initial_conditions();
    let mut rec = MemoryRecorder::new();
    let outcome = Session::new(&ckt)
        .observe(&mut rec)
        .transient_rescued(&tran, &RescuePolicy::default())
        .unwrap();
    assert!(!outcome.is_partial());
    assert!(outcome.rescues().is_clean());
    assert_eq!(rec.counter_value("tran.rescue_attempts"), 0);
    // The rescued entry point returns the same waveform as the plain one.
    let plain = Session::new(&ckt).transient(&tran).unwrap();
    assert_eq!(plain.time(), outcome.result().time());
    assert_eq!(
        plain.voltage(b).values(),
        outcome.result().voltage(b).values()
    );
}
