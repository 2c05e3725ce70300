//! The paper's experiments, as data-producing functions.
//!
//! All experiments take a [`SimQuality`] so the Criterion benches can run
//! reduced variants of the same code paths the `repro` binary runs at
//! publication settings.

use mssim::prelude::{Hertz, Volts};
use mssim::sweep;
use pwm_perceptron::dataset::Dataset;
use pwm_perceptron::duty::DutyCycle;
use pwm_perceptron::eval::{AnalyticEvaluator, CircuitEvaluator, Evaluator, SwitchLevelEvaluator};
use pwm_perceptron::robustness::{self, McSummary, VariationSpec};
use pwm_perceptron::train::{train, TrainConfig};
use pwm_perceptron::{PwmPerceptron, Query, Reference, WeightVector};
use pwmcell::analytic;
use pwmcell::{
    measure_periodic, AdderSpec, AdderTestbench, InverterTestbench, MeasureSpec, SimQuality,
    Technology,
};

/// The six input configurations of the paper's Table II.
pub const TABLE2_CONFIGS: [([f64; 3], [u32; 3]); 6] = [
    ([0.70, 0.80, 0.90], [7, 7, 7]),
    ([0.50, 0.50, 0.50], [1, 2, 4]),
    ([0.20, 0.60, 0.80], [5, 6, 7]),
    ([0.95, 0.90, 0.80], [7, 6, 6]),
    ([0.30, 0.40, 0.50], [1, 4, 2]),
    ([0.80, 0.20, 0.50], [7, 3, 4]),
];

/// The paper's Table II "theoretical" column as printed (rows 4 and 6
/// deviate slightly from Eq. 2; see EXPERIMENTS.md).
pub const TABLE2_PAPER_THEORY: [f64; 6] = [2.00, 0.42, 1.21, 2.00, 0.34, 0.96];

/// The paper's Table II "simulation" column as printed.
pub const TABLE2_PAPER_SIM: [f64; 6] = [1.99, 0.39, 1.17, 2.05, 0.29, 0.89];

// ---------------------------------------------------------------- Fig. 4

/// One duty-cycle point of Fig. 4 (inverter transfer for three loads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Row {
    /// Input duty cycle, 0..=1.
    pub duty: f64,
    /// Output voltage without a load resistor.
    pub vout_no_load: f64,
    /// Output voltage with Rout = 5 kΩ.
    pub vout_5k: f64,
    /// Output voltage with Rout = 100 kΩ.
    pub vout_100k: f64,
    /// The ideal straight line `Vdd·(1 − duty)`.
    pub ideal: f64,
}

/// Fig. 4: inverter output voltage vs input duty cycle for
/// Rout ∈ {no load, 5 kΩ, 100 kΩ} at 500 MHz, Vdd = 2.5 V.
pub fn fig4(tech: &Technology, quality: &SimQuality, points: usize) -> Vec<Fig4Row> {
    let duties = sweep::linspace(0.0, 1.0, points.max(2));
    let benches = [
        InverterTestbench::without_load(tech),
        InverterTestbench::with_rout(tech, Some(mssim::units::Ohms(5e3))),
        InverterTestbench::with_rout(tech, Some(mssim::units::Ohms(100e3))),
    ];
    sweep::sweep(&duties, |&duty, _| {
        let m: Vec<f64> = benches
            .iter()
            .map(|tb| {
                tb.measure(&MeasureSpec::duty(duty), quality)
                    .expect("fig4 measurement converges")
                    .vout
                    .value()
            })
            .collect();
        Fig4Row {
            duty,
            vout_no_load: m[0],
            vout_5k: m[1],
            vout_100k: m[2],
            ideal: analytic::inverter_vout(tech.vdd.value(), duty),
        }
    })
}

// ---------------------------------------------------------------- Fig. 5

/// One frequency point of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Input frequency in hertz.
    pub frequency: f64,
    /// Output voltage at 25 % duty.
    pub vout_dc25: f64,
    /// Output voltage at 50 % duty.
    pub vout_dc50: f64,
    /// Output voltage at 75 % duty.
    pub vout_dc75: f64,
}

/// Fig. 5: inverter output vs input frequency (1–1500 MHz) for duty
/// cycles 25/50/75 %, Rout = 100 kΩ.
pub fn fig5(tech: &Technology, quality: &SimQuality, frequencies: &[f64]) -> Vec<Fig5Row> {
    let tb = InverterTestbench::new(tech);
    sweep::sweep(frequencies, |&freq, _| {
        let at = |duty: f64| {
            tb.measure(
                &MeasureSpec::duty(duty).with_frequency(Hertz(freq)),
                quality,
            )
            .expect("fig5 measurement converges")
            .vout
            .value()
        };
        Fig5Row {
            frequency: freq,
            vout_dc25: at(0.25),
            vout_dc50: at(0.50),
            vout_dc75: at(0.75),
        }
    })
}

/// The frequency grid of the paper's Fig. 5.
pub fn fig5_frequencies(points: usize) -> Vec<f64> {
    sweep::linspace(1e6, 1500e6, points.max(2))
}

// ----------------------------------------------------------- Figs. 6 & 7

/// One supply point of Figs. 6 and 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Absolute output voltages for duty 25/50/75 %.
    pub vout: [f64; 3],
    /// Relative outputs `Vout/Vdd` (the Fig. 7 series).
    pub ratio: [f64; 3],
}

/// Figs. 6 and 7: inverter output vs supply voltage 0.5–5 V at
/// 500 MHz, duty ∈ {25, 50, 75} %. One simulation per point serves both
/// figures (Fig. 7 is the same data normalised by Vdd).
pub fn fig6_fig7(tech: &Technology, quality: &SimQuality, vdds: &[f64]) -> Vec<Fig6Row> {
    let tb = InverterTestbench::new(tech);
    sweep::sweep(vdds, |&vdd, _| {
        let mut vout = [0.0; 3];
        for (k, duty) in [0.25, 0.5, 0.75].into_iter().enumerate() {
            vout[k] = tb
                .measure(&MeasureSpec::duty(duty).with_vdd(Volts(vdd)), quality)
                .expect("fig6 measurement converges")
                .vout
                .value();
        }
        Fig6Row {
            vdd,
            vout,
            ratio: [vout[0] / vdd, vout[1] / vdd, vout[2] / vdd],
        }
    })
}

/// The supply grid of the paper's Figs. 6/7.
pub fn fig6_vdds(points: usize) -> Vec<f64> {
    sweep::linspace(0.5, 5.0, points.max(2))
}

// --------------------------------------------------------------- Table II

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Input duty cycles.
    pub duties: [f64; 3],
    /// Input weights.
    pub weights: [u32; 3],
    /// Eq. 2 value.
    pub v_theory: f64,
    /// Transistor-level simulated value.
    pub v_sim: f64,
    /// `v_sim − v_theory`.
    pub error: f64,
    /// Values printed in the paper (theory, simulation).
    pub paper: (f64, f64),
}

/// Table II: the 3×3 weighted adder at six input configurations,
/// theoretical (Eq. 2) vs transistor-level simulation.
pub fn table2(tech: &Technology, quality: &SimQuality) -> Vec<Table2Row> {
    let configs: Vec<usize> = (0..TABLE2_CONFIGS.len()).collect();
    sweep::sweep(&configs, |&i, _| {
        let (duties, weights) = TABLE2_CONFIGS[i];
        let tb = AdderTestbench::paper(tech);
        let m = tb
            .measure(&duties, &weights, quality)
            .expect("table2 measurement converges");
        let v_theory = analytic::adder_vout(tech.vdd.value(), &duties, &weights, 3);
        Table2Row {
            duties,
            weights,
            v_theory,
            v_sim: m.vout.value(),
            error: m.vout.value() - v_theory,
            paper: (TABLE2_PAPER_THEORY[i], TABLE2_PAPER_SIM[i]),
        }
    })
}

// ---------------------------------------------------------------- Fig. 8

/// One frequency point of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Row {
    /// Input frequency in hertz.
    pub frequency: f64,
    /// Average supply power in watts.
    pub power: f64,
}

/// The workload used for the power sweep (the paper does not state its
/// configuration; we use Table II row 3 — mixed duties and weights — and
/// document the choice in EXPERIMENTS.md).
pub const FIG8_DUTIES: [f64; 3] = [0.20, 0.60, 0.80];
/// Weights of the Fig. 8 workload.
pub const FIG8_WEIGHTS: [u32; 3] = [5, 6, 7];

/// Fig. 8: average supply power of the 3×3 adder vs input frequency
/// (100–1000 MHz).
pub fn fig8(tech: &Technology, quality: &SimQuality, frequencies: &[f64]) -> Vec<Fig8Row> {
    let tb = AdderTestbench::paper(tech);
    sweep::sweep(frequencies, |&freq, _| {
        let m = tb
            .measure_at(&FIG8_DUTIES, &FIG8_WEIGHTS, Hertz(freq), tech.vdd, quality)
            .expect("fig8 measurement converges");
        Fig8Row {
            frequency: freq,
            power: m.supply_power.value(),
        }
    })
}

/// The frequency grid of the paper's Fig. 8.
pub fn fig8_frequencies(points: usize) -> Vec<f64> {
    sweep::linspace(100e6, 1000e6, points.max(2))
}

// ------------------------------------------------------------- Ablations

/// One point of the Rout linearity ablation (A1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutLinearityRow {
    /// Output resistor in ohms.
    pub rout: f64,
    /// Maximum integral nonlinearity over the duty sweep, in volts.
    pub max_inl: f64,
}

/// A1: how the output resistor linearises the transfer curve — max
/// deviation from the ideal straight line across the duty sweep, for a
/// range of Rout values. (The paper shows three curves in Fig. 4; this
/// sweep fills in the trend.)
pub fn ablation_rout(
    tech: &Technology,
    quality: &SimQuality,
    routs: &[f64],
    duty_points: usize,
) -> Vec<RoutLinearityRow> {
    let duties = sweep::linspace(0.1, 0.9, duty_points.max(2));
    sweep::sweep(routs, |&rout, _| {
        let tb = InverterTestbench::with_rout(tech, Some(mssim::units::Ohms(rout)));
        let max_inl = duties
            .iter()
            .map(|&d| {
                let v = tb
                    .measure(&MeasureSpec::duty(d), quality)
                    .expect("ablation measurement converges")
                    .vout
                    .value();
                (v - analytic::inverter_vout(tech.vdd.value(), d)).abs()
            })
            .fold(0.0, f64::max);
        RoutLinearityRow { rout, max_inl }
    })
}

/// One point of the Cout ablation (A2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoutRow {
    /// Output capacitor in farads.
    pub cout: f64,
    /// Steady-state peak-to-peak ripple in volts.
    pub ripple: f64,
    /// Settling time estimate in seconds (1 % tolerance).
    pub settle: f64,
}

/// A2: the ripple ↔ settling-time trade-off of the output capacitor at
/// 500 MHz, duty 50 %, Rout = 100 kΩ.
pub fn ablation_cout(tech: &Technology, quality: &SimQuality, couts: &[f64]) -> Vec<CoutRow> {
    sweep::sweep(couts, |&cout, _| {
        let tb = InverterTestbench::new(tech).with_cout(mssim::units::Farads(cout));
        let m = tb
            .measure(&MeasureSpec::duty(0.5), quality)
            .expect("cout ablation converges");
        let tau = (tech.rout.value() + 0.5 * (tech.ron_n().value() + tech.ron_p().value())) * cout;
        CoutRow {
            cout,
            ripple: m.ripple.value(),
            settle: tau * (100.0f64).ln(),
        }
    })
}

// ------------------------------------------------- Monte Carlo / A3, A4

/// A3 (fast tier): switch-level global-corner Monte Carlo of every
/// Table II row.
pub fn mc_switch_level(tech: &Technology, trials: usize, seed: u64) -> Vec<(usize, McSummary)> {
    TABLE2_CONFIGS
        .iter()
        .enumerate()
        .map(|(i, (duties, weights))| {
            let query = Query::from_raw(duties, weights, 3).expect("Table II rows are valid");
            let s = robustness::switch_corner_monte_carlo(
                tech,
                &query,
                &VariationSpec::typical_65nm(),
                trials,
                seed + i as u64,
            );
            (i, s)
        })
        .collect()
}

/// A3 (reference tier): transistor-level Monte Carlo with independent
/// per-device mismatch, for one Table II row.
pub fn mc_circuit_level(
    tech: &Technology,
    quality: &SimQuality,
    row: usize,
    trials: usize,
    seed: u64,
) -> McSummary {
    use mssim::prelude::*;
    let (duties, weights) = TABLE2_CONFIGS[row % TABLE2_CONFIGS.len()];
    let samples = sweep::monte_carlo(trials, seed, |rng, _| {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vdd_src = ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
        let adder = pwmcell::WeightedAdder::build(
            &mut ckt,
            tech,
            "dut",
            vdd,
            &weights,
            AdderSpec::paper_3x3(),
        );
        for (i, &d) in duties.iter().enumerate() {
            ckt.vsource(
                &format!("VIN{i}"),
                adder.inputs[i],
                Circuit::GND,
                Waveform::pwm(tech.vdd.value(), tech.frequency.value(), d),
            );
        }
        robustness::perturb_circuit(&mut ckt, &VariationSpec::typical_65nm(), rng);
        let period = tech.frequency.period().value();
        let tau = tech.cout_adder.value() * (tech.rout.value() + 9e3) / 21.0;
        let plan = quality.plan(period, tau);
        measure_periodic(&ckt, adder.output, vdd_src, &plan, None, None)
            .and_then(|run| run.measurement)
            .expect("mc transient converges")
            .vout
            .value()
    });
    McSummary::from_samples(samples)
}

/// A4: Table II frequency invariance — every row evaluated at several
/// frequencies with the switch-level model plus a circuit-level spot
/// check, returning `(frequency, row, vout)` triples.
pub fn table2_frequency_invariance(
    tech: &Technology,
    frequencies: &[f64],
) -> Vec<(f64, usize, f64)> {
    let mut out = Vec::new();
    for &freq in frequencies {
        for (i, (duties, weights)) in TABLE2_CONFIGS.iter().enumerate() {
            let v = robustness::vout_vs_frequency(tech, duties, weights, 3, &[freq])[0].1;
            out.push((freq, i, v));
        }
    }
    out
}

// ------------------------------------------------------------- Baseline

/// A5: cost comparison between the PWM adder and the digital baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineComparison {
    /// Transistors in the PWM 3×3 weighted adder.
    pub pwm_transistors: usize,
    /// Transistors in the digital MAC datapath.
    pub digital_transistors: usize,
    /// Digital dynamic power at the given evaluation rate, watts.
    pub digital_power: f64,
    /// Evaluation rate used for the digital power estimate, Hz.
    pub eval_rate: f64,
}

/// A5: builds the matched digital perceptron and reports transistor count
/// and activity-based power at `eval_rate` classifications per second.
pub fn baseline_comparison(eval_rate: f64, samples: usize) -> BaselineComparison {
    use baseline::{BaselineSpec, DigitalPerceptron};
    let digital = DigitalPerceptron::new(BaselineSpec::matched_to_paper());
    let period_ps = (1e12 / eval_rate).max(1.0) as u64;
    let report = digital.measure_power(
        &[5, 6, 7],
        samples,
        period_ps,
        &gatesim::PowerModel::umc65_like(),
        42,
    );
    BaselineComparison {
        pwm_transistors: AdderSpec::paper_3x3().transistor_count(),
        digital_transistors: digital.transistor_count(),
        digital_power: report.dynamic_watts,
        eval_rate,
    }
}

// ------------------------------------------------------------ Kessels A6

/// A6: duty cycles produced by the gate-level Kessels-style PWM counter.
pub fn kessels_duty_table(bits: u32) -> Vec<(u64, f64, f64)> {
    use gatesim::kessels::{measure_duty, KesselsPwm};
    use gatesim::Netlist;
    let mut nl = Netlist::new();
    let pwm = KesselsPwm::build(&mut nl, bits);
    let n = pwm.modulus();
    let step = (n / 8).max(1);
    (0..=n)
        .step_by(step as usize)
        .map(|m| {
            let measured = measure_duty(&nl, &pwm, m, 2, 1_000);
            (m, pwm.duty_for(m), measured)
        })
        .collect()
}

/// A6 (power): dynamic power and transistor cost of the PWM generator at
/// a given clock period, measured over `wraps` counter wraps at mid
/// threshold.
pub fn kessels_power(bits: u32, period_ps: u64, wraps: usize) -> gatesim::PowerReport {
    use gatesim::blocks::drive_word;
    use gatesim::kessels::KesselsPwm;
    use gatesim::{Netlist, PowerModel, Simulator};
    let mut nl = Netlist::new();
    let pwm = KesselsPwm::build(&mut nl, bits);
    let mut sim = Simulator::new(&nl);
    drive_word(&mut sim, &pwm.threshold, pwm.modulus() / 2);
    let n = pwm.modulus() as usize;
    sim.run_clock(pwm.clock, n, period_ps); // warm-up wrap
    sim.reset_activity();
    let t0 = sim.time();
    sim.run_clock(pwm.clock, n * wraps, period_ps);
    let duration = sim.time() - t0;
    PowerModel::umc65_like().estimate(&nl, &sim, duration.max(1))
}

/// A6 (waveforms): two counter wraps at threshold `M`, dumped as a
/// GTKWave-compatible VCD document (clock, PWM output and counter bits).
pub fn kessels_waveform_vcd(bits: u32, threshold: u64) -> String {
    use gatesim::blocks::drive_word;
    use gatesim::kessels::KesselsPwm;
    use gatesim::vcd::VcdRecorder;
    use gatesim::{Netlist, Simulator};
    let mut nl = Netlist::new();
    let pwm = KesselsPwm::build(&mut nl, bits);
    let mut sim = Simulator::new(&nl);
    let mut nets = vec![pwm.clock, pwm.pwm_out];
    nets.extend_from_slice(&pwm.count);
    let mut vcd = VcdRecorder::new(&nl, &nets);
    drive_word(&mut sim, &pwm.threshold, threshold);
    let period_ps = 1_000;
    let cycles = 2 * pwm.modulus() as usize;
    vcd.sample(&sim);
    for _ in 0..cycles {
        sim.run_clock(pwm.clock, 1, period_ps);
        vcd.sample(&sim);
    }
    let end = sim.time();
    vcd.finish(end)
}

// --------------------------------------------------------------- A7 xval

/// A7: cross-validation of the three evaluator tiers on the Table II
/// configurations: `(row, analytic, switch, circuit)`.
pub fn evaluator_cross_validation(
    tech: &Technology,
    quality: &SimQuality,
) -> Vec<(usize, f64, f64, f64)> {
    let analytic_eval = AnalyticEvaluator::new(tech.vdd);
    let switch_eval = SwitchLevelEvaluator::new(tech.clone());
    let circuit_eval = CircuitEvaluator::new(tech.clone(), *quality);
    TABLE2_CONFIGS
        .iter()
        .enumerate()
        .map(|(i, (duties, weights))| {
            let d: Vec<DutyCycle> = duties.iter().map(|&x| DutyCycle::new(x)).collect();
            let w = WeightVector::new(weights.to_vec(), 3).expect("table weights valid");
            let va = analytic_eval.vout(&d, &w).expect("analytic").value();
            let vs = switch_eval.vout(&d, &w).expect("switch").value();
            let vc = circuit_eval.vout(&d, &w).expect("circuit").value();
            (i, va, vs, vc)
        })
        .collect()
}

// ------------------------------------------------- A8: weight precision

/// One row of the weight-precision ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRow {
    /// Weight width in bits.
    pub bits: u32,
    /// Training accuracy reached.
    pub train_accuracy: f64,
    /// Held-out accuracy.
    pub test_accuracy: f64,
    /// Transistors in the corresponding 3×n adder.
    pub transistors: usize,
}

/// A8: classification accuracy vs weight bit-width on a hard separable
/// task (6-bit teacher, 4 inputs, 1 % margin — low-precision students
/// cannot represent the boundary exactly). Hardware-in-the-loop with the
/// switch-level evaluator.
pub fn ablation_weight_bits(seed: u64, bits_range: &[u32]) -> Vec<PrecisionRow> {
    let (data, _, _) = Dataset::linearly_separable_with_margin(300, 4, 6, seed, 0.01);
    let (train_set, test_set) = data.split(0.7, seed ^ 0x55);
    bits_range
        .iter()
        .map(|&bits| {
            let mut p = PwmPerceptron::new(
                SwitchLevelEvaluator::paper(),
                WeightVector::zeros(4, bits),
                Reference::ratiometric(0.5),
            );
            let report = train(&mut p, &train_set, &TrainConfig::default()).expect("training runs");
            let test_accuracy = p.accuracy(&test_set).expect("test accuracy");
            PrecisionRow {
                bits,
                train_accuracy: report.final_accuracy,
                test_accuracy,
                transistors: AdderSpec::new(4, bits).transistor_count(),
            }
        })
        .collect()
}

// ------------------------------------------------ A9: adder scaling law

/// One row of the architecture-scaling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingRow {
    /// Number of inputs `k`.
    pub inputs: usize,
    /// Weight width `n` in bits.
    pub bits: u32,
    /// Transistor count.
    pub transistors: usize,
    /// Output LSB voltage step `Vdd/(k·(2ⁿ−1))` — the resolution the
    /// comparator must discriminate.
    pub lsb_voltage: f64,
    /// Steady-state ripple at 500 MHz with mid-scale inputs (switch
    /// level).
    pub ripple: f64,
    /// First-order settling time constant of the output node.
    pub tau: f64,
}

/// A9: how the paper's architecture scales with inputs and weight
/// precision — transistor cost is linear, but the comparator's required
/// resolution shrinks as `1/(k·2ⁿ)`, which is the real scaling limit.
pub fn adder_scaling(tech: &Technology, shapes: &[(usize, u32)]) -> Vec<ScalingRow> {
    shapes
        .iter()
        .map(|&(inputs, bits)| {
            let spec = AdderSpec::new(inputs, bits);
            let duties = vec![0.5; inputs];
            let weights = vec![spec.max_weight() / 2 + 1; inputs];
            let node = pwmcell::PwmNode::weighted_adder(
                tech,
                &duties,
                &weights,
                bits,
                tech.frequency.value(),
                tech.vdd.value(),
                tech.cout_adder.value(),
            );
            let ron = 0.5 * (tech.ron_n().value() + tech.ron_p().value());
            let units = inputs as f64 * spec.max_weight() as f64;
            ScalingRow {
                inputs,
                bits,
                transistors: spec.transistor_count(),
                lsb_voltage: tech.vdd.value() / units,
                ripple: node.steady_state_ripple(),
                tau: (tech.rout.value() + ron) / units * tech.cout_adder.value(),
            }
        })
        .collect()
}

// --------------------------------------------------- A11: temperature

/// One temperature point of the thermal robustness study.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureRow {
    /// Ambient temperature in °C.
    pub celsius: f64,
    /// Adder outputs for the six Table II rows (switch level).
    pub vouts: [f64; 6],
    /// Largest deviation from the 27 °C nominal, volts.
    pub max_shift: f64,
}

/// A11: Table II outputs across the military temperature range. The
/// temporal code survives: temperature moves the on-resistances, but
/// those cancel in the conductance *ratios* just like process mismatch
/// does.
pub fn temperature_sweep(tech: &Technology, temps: &[f64]) -> Vec<TemperatureRow> {
    let vout_at = |t: &Technology, i: usize| {
        let (duties, weights) = TABLE2_CONFIGS[i];
        pwmcell::PwmNode::weighted_adder(
            t,
            &duties,
            &weights,
            3,
            t.frequency.value(),
            t.vdd.value(),
            t.cout_adder.value(),
        )
        .steady_state_average()
    };
    let nominal: Vec<f64> = (0..6).map(|i| vout_at(tech, i)).collect();
    temps
        .iter()
        .map(|&celsius| {
            let t = tech.at_temperature(celsius);
            let mut vouts = [0.0; 6];
            let mut max_shift = 0.0f64;
            for (i, v) in vouts.iter_mut().enumerate() {
                *v = vout_at(&t, i);
                max_shift = max_shift.max((*v - nominal[i]).abs());
            }
            TemperatureRow {
                celsius,
                vouts,
                max_shift,
            }
        })
        .collect()
}

// ------------------------------------------------- decision-boundary map

/// One grid point of the decision-boundary map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapPoint {
    /// Duty cycle of input 0.
    pub d0: f64,
    /// Duty cycle of input 1.
    pub d1: f64,
    /// Analog sum as a fraction of Vdd (switch level).
    pub ratio: f64,
    /// Comparator decision against the given reference.
    pub fires: bool,
}

/// Decision-boundary map of a 2-input perceptron over the full duty
/// plane (switch-level hardware model) — the geometric picture of what
/// the temporal dot product computes. `weights` fixes the slope, the
/// ratiometric `reference` fixes the intercept.
pub fn decision_map(
    tech: &Technology,
    weights: &[u32; 2],
    reference: f64,
    grid: usize,
) -> Vec<MapPoint> {
    let pts = sweep::linspace(0.0, 1.0, grid.max(2));
    let mut cells = Vec::with_capacity(pts.len() * pts.len());
    for &d0 in &pts {
        for &d1 in &pts {
            cells.push((d0, d1));
        }
    }
    sweep::sweep(&cells, |&(d0, d1), _| {
        let v = pwmcell::PwmNode::weighted_adder(
            tech,
            &[d0, d1],
            weights,
            3,
            tech.frequency.value(),
            tech.vdd.value(),
            tech.cout_adder.value(),
        )
        .steady_state_average();
        let ratio = v / tech.vdd.value();
        MapPoint {
            d0,
            d1,
            ratio,
            fires: ratio > reference,
        }
    })
}

// ------------------------------------------------------ A12: noise

/// One point of the output-noise budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseRow {
    /// Output capacitor in farads.
    pub cout: f64,
    /// Integrated RMS output noise in volts.
    pub rms_noise: f64,
    /// The kT/C bound for that capacitor.
    pub ktc: f64,
    /// The adder's output LSB (119 mV at 2.5 V) divided by the noise —
    /// how many sigmas of margin a 1-LSB decision has.
    pub lsb_over_noise: f64,
}

/// A12: thermal-noise budget of the adder output node vs Cout. Shows the
/// intrinsic noise sits near the kT/C bound, orders of magnitude below
/// the 119 mV LSB — device mismatch (A3), not noise, limits precision.
pub fn noise_budget(tech: &Technology, couts: &[f64]) -> Vec<NoiseRow> {
    use mssim::prelude::*;
    let lsb = tech.vdd.value() / 21.0;
    couts
        .iter()
        .map(|&cout| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
            let adder = pwmcell::WeightedAdder::build(
                &mut ckt,
                tech,
                "a",
                vdd,
                &[7, 7, 7],
                AdderSpec::paper_3x3(),
            );
            ckt.set_capacitance(adder.cout, cout)
                .expect("is a capacitor");
            // Static worst-ish case: one input high, two low.
            for (i, lv) in [tech.vdd.value(), 0.0, 0.0].into_iter().enumerate() {
                ckt.vsource(
                    &format!("VIN{i}"),
                    adder.inputs[i],
                    Circuit::GND,
                    Waveform::dc(lv),
                );
            }
            let r_eff = tech.rout.value() / 21.0;
            let fc = 1.0 / (2.0 * std::f64::consts::PI * r_eff * cout);
            let freqs = sweep::logspace(fc / 1e4, fc * 1e4, 300);
            let result = Session::new(&ckt)
                .noise(adder.output, &freqs)
                .expect("noise analysis converges");
            let rms = result.integrated_rms();
            NoiseRow {
                cout,
                rms_noise: rms,
                ktc: (1.380649e-23 * 300.0 / cout).sqrt(),
                lsb_over_noise: lsb / rms,
            }
        })
        .collect()
}

// ------------------------------------------ A10: full Fig. 1 perceptron

/// One classification of the complete transistor-level perceptron.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullPerceptronRow {
    /// Table II row index.
    pub row: usize,
    /// Eq. 2 output as a fraction of Vdd.
    pub ratio: f64,
    /// Decision at 2.5 V.
    pub fires_nominal: bool,
    /// Decision at 1.8 V.
    pub fires_low_vdd: bool,
    /// What the ideal comparator against 0.5·Vdd would say.
    pub expected: bool,
}

/// A10: the complete Fig. 1 circuit (adder + divider reference +
/// transistor comparator, 62 transistors) classifying every Table II row
/// against a 0.5·Vdd reference at two supplies.
pub fn full_perceptron(tech: &Technology, quality: &SimQuality) -> Vec<FullPerceptronRow> {
    use pwmcell::PerceptronTestbench;
    let tb = PerceptronTestbench::new(tech, AdderSpec::paper_3x3(), 0.5);
    let rows: Vec<usize> = (0..TABLE2_CONFIGS.len()).collect();
    sweep::sweep(&rows, |&i, _| {
        let (duties, weights) = TABLE2_CONFIGS[i];
        let ratio = analytic::adder_vout(1.0, &duties, &weights, 3);
        let fires_nominal = tb
            .classify(&duties, &weights, Volts(2.5), quality)
            .expect("classification converges");
        let fires_low_vdd = tb
            .classify(&duties, &weights, Volts(1.8), quality)
            .expect("classification converges");
        FullPerceptronRow {
            row: i,
            ratio,
            fires_nominal,
            fires_low_vdd,
            expected: ratio > 0.5,
        }
    })
}

// ----------------------------------------------------------- End-to-end

/// End-to-end training demo used by the `repro train` experiment:
/// trains on a separable task with the switch-level evaluator and
/// reports train/test accuracy.
pub fn train_demo(seed: u64) -> (f64, f64) {
    let (data, _, _) = Dataset::linearly_separable(160, 3, 3, seed);
    let (train_set, test_set) = data.split(0.7, seed ^ 0xABCD);
    let mut p = PwmPerceptron::new(
        SwitchLevelEvaluator::paper(),
        WeightVector::zeros(3, 3),
        Reference::ratiometric(0.5),
    );
    let report = train(&mut p, &train_set, &TrainConfig::default()).expect("training runs");
    let test_acc = p.accuracy(&test_set).expect("test accuracy");
    (report.final_accuracy, test_acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::umc65_like()
    }

    /// Reduced-grid smoke versions of every experiment, so the harness
    /// itself is covered by `cargo test`.
    #[test]
    fn fig4_shape() {
        let rows = fig4(&tech(), &SimQuality::fast(), 3);
        assert_eq!(rows.len(), 3);
        // Inverse proportionality: duty 0 high, duty 1 low (100k column).
        assert!(rows[0].vout_100k > 2.2);
        assert!(rows[2].vout_100k < 0.3);
        // 100k tracks the ideal line better than no-load at mid duty.
        let mid = &rows[1];
        assert!((mid.vout_100k - mid.ideal).abs() <= (mid.vout_no_load - mid.ideal).abs() + 1e-9);
    }

    #[test]
    fn fig5_is_flat() {
        let rows = fig5(&tech(), &SimQuality::fast(), &[50e6, 500e6]);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].vout_dc50 - rows[1].vout_dc50).abs() < 0.15);
        assert!(rows[0].vout_dc25 > rows[0].vout_dc75);
    }

    #[test]
    fn table2_matches_paper_shape() {
        // One row at fast quality to keep the unit suite quick; all six
        // at paper quality run in `repro`.
        let rows = table2(&tech(), &SimQuality::fast());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.error.abs() < 0.15,
                "row {:?}: sim {} vs theory {}",
                r.duties,
                r.v_sim,
                r.v_theory
            );
        }
    }

    #[test]
    fn kessels_table_is_exact() {
        let rows = kessels_duty_table(3);
        for (m, expected, measured) in rows {
            assert!(
                (expected - measured).abs() < 1e-9,
                "M={m}: {measured} vs {expected}"
            );
        }
    }

    #[test]
    fn baseline_comparison_shows_the_gap() {
        let c = baseline_comparison(1e6, 10);
        assert_eq!(c.pwm_transistors, 54);
        assert!(c.digital_transistors > 20 * c.pwm_transistors);
        assert!(c.digital_power > 0.0);
    }

    #[test]
    fn mc_switch_level_is_tight() {
        let rows = mc_switch_level(&tech(), 32, 9);
        assert_eq!(rows.len(), 6);
        for (i, s) in rows {
            assert!(
                s.relative_std() < 0.06,
                "row {i}: cv = {}",
                s.relative_std()
            );
        }
    }

    #[test]
    fn table2_frequency_invariance_holds() {
        let rows = table2_frequency_invariance(&tech(), &[1e6, 100e6, 1e9]);
        for row_idx in 0..6 {
            let vs: Vec<f64> = rows
                .iter()
                .filter(|(_, i, _)| *i == row_idx)
                .map(|(_, _, v)| *v)
                .collect();
            let spread = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - vs.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(spread < 0.05, "row {row_idx} spread {spread}");
        }
    }
}
