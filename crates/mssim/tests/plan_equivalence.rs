//! Property-based golden equivalence: on randomly generated RC and RLC
//! ladder networks, the compiled-plan solver must reproduce the naive
//! reference assembler's transient waveforms within 1e-12 (in practice,
//! bitwise — the plan replays the reference's accumulation order).

use mssim::prelude::*;
use proptest::prelude::*;

/// Builds an n-stage ladder driven by a PWM source. Per stage: a series
/// resistor, optionally a series inductor, and a capacitor to ground.
fn ladder(
    stages: usize,
    r_ohms: &[f64],
    c_farads: &[f64],
    with_inductors: bool,
    duty: f64,
) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    let mut probes = vec![prev];
    ckt.vsource("VIN", prev, Circuit::GND, Waveform::pwm(2.5, 100e6, duty));
    for s in 0..stages {
        let node = ckt.node(&format!("n{}", s + 1));
        if with_inductors && s % 2 == 1 {
            let mid = ckt.node(&format!("m{}", s + 1));
            ckt.resistor(&format!("R{s}"), prev, mid, r_ohms[s]);
            ckt.inductor(&format!("L{s}"), mid, node, 50e-9);
            probes.push(mid);
        } else {
            ckt.resistor(&format!("R{s}"), prev, node, r_ohms[s]);
        }
        ckt.capacitor(&format!("C{s}"), node, Circuit::GND, c_farads[s]);
        probes.push(node);
        prev = node;
    }
    (ckt, probes)
}

fn max_divergence(ckt: &Circuit, probes: &[NodeId], dt: f64, steps: usize) -> f64 {
    let tran = Transient::new(dt, steps as f64 * dt).use_initial_conditions();
    let plan = Session::new(ckt).transient(&tran).expect("plan converges");
    let reference = Session::new(ckt)
        .with_reference_solver(true)
        .transient(&tran)
        .expect("reference converges");
    let mut worst = 0.0f64;
    for &node in probes {
        for (a, b) in plan
            .voltage(node)
            .values()
            .iter()
            .zip(reference.voltage(node).values())
        {
            worst = worst.max((a - b).abs());
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random RC ladders: plan == reference within 1e-12.
    #[test]
    fn rc_ladder_plan_matches_reference(
        stages in 1usize..6,
        r_ohms in prop::collection::vec(100.0f64..10e3, 6),
        c_farads in prop::collection::vec(0.1e-12f64..10e-12, 6),
        duty in 0.1f64..0.9,
    ) {
        let (ckt, probes) = ladder(stages, &r_ohms, &c_farads, false, duty);
        let d = max_divergence(&ckt, &probes, 100e-12, 120);
        prop_assert!(d <= 1e-12, "RC ladder diverges by {d:e}");
    }

    /// Random RLC ladders (inductor on every other stage): the extra
    /// branch-current rows must not disturb equivalence.
    #[test]
    fn rlc_ladder_plan_matches_reference(
        stages in 2usize..6,
        r_ohms in prop::collection::vec(100.0f64..10e3, 6),
        c_farads in prop::collection::vec(0.1e-12f64..10e-12, 6),
        duty in 0.1f64..0.9,
    ) {
        let (ckt, probes) = ladder(stages, &r_ohms, &c_farads, true, duty);
        let d = max_divergence(&ckt, &probes, 100e-12, 120);
        prop_assert!(d <= 1e-12, "RLC ladder diverges by {d:e}");
    }
}
