//! The simulating `repro all --fast` experiments, run through
//! `bench::experiments`: the researcher's path, and the
//! `bench::experiments` layer of the traced `campaigns` run.

use std::collections::BTreeMap;

use bench::experiments as ex;
use pwmcell::{SimQuality, Technology};

use crate::metrics::Outcome;
use crate::{reference, spans};

/// The simulating experiments of `repro all`, in its order. Fig. 7 is
/// Fig. 6's data divided by Vdd, so one call serves both.
pub const EXPERIMENTS: [&str; 10] = [
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "fig8",
    "ablation_rout",
    "ablation_cout",
    "mc",
    "xval",
    "full_perceptron",
];

/// How a value is compared with its recorded counterpart.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tol {
    /// Volts, within the limited-mode tolerance of 1e-4 V.
    Volts,
    /// Any other unit, within 1e-4 of its magnitude.
    Relative,
    /// Decisions, exactly.
    Exact,
}

/// One named output value of a job.
#[derive(Debug, Clone)]
pub struct Value {
    name: String,
    value: f64,
    tol: Tol,
}

fn v(name: String, value: f64, tol: Tol) -> Value {
    Value { name, value, tol }
}

/// Everything the experiments need before the first one runs.
pub struct Setup {
    tech: Technology,
    quality: SimQuality,
    seed: u64,
    fig5_f: Vec<f64>,
    fig6_v: Vec<f64>,
    fig8_f: Vec<f64>,
    recorded: BTreeMap<String, f64>,
}

/// Builds the technology, the sweep grids and the recorded values.
pub fn setup(seed: u64) -> Setup {
    Setup {
        tech: Technology::umc65_like(),
        quality: SimQuality::fast(),
        seed,
        fig5_f: ex::fig5_frequencies(4),
        fig6_v: ex::fig6_vdds(5),
        fig8_f: ex::fig8_frequencies(4),
        recorded: reference::figures(),
    }
}

/// Monte Carlo seeds of the switch-level and transistor-level trials.
fn mc_seeds(seed: u64) -> (u64, u64) {
    (seed, seed ^ 0xBEEF)
}

/// Runs one experiment at `repro --fast` settings and flattens its rows.
fn experiment(s: &Setup, name: &str) -> Vec<Value> {
    let (t, q) = (&s.tech, &s.quality);
    let mut out = Vec::new();
    match name {
        "fig4" => {
            for (i, r) in ex::fig4(t, q, 6).iter().enumerate() {
                out.push(v(format!("fig4[{i}].no_load"), r.vout_no_load, Tol::Volts));
                out.push(v(format!("fig4[{i}].5k"), r.vout_5k, Tol::Volts));
                out.push(v(format!("fig4[{i}].100k"), r.vout_100k, Tol::Volts));
            }
        }
        "fig5" => {
            for (i, r) in ex::fig5(t, q, &s.fig5_f).iter().enumerate() {
                out.push(v(format!("fig5[{i}].dc25"), r.vout_dc25, Tol::Volts));
                out.push(v(format!("fig5[{i}].dc50"), r.vout_dc50, Tol::Volts));
                out.push(v(format!("fig5[{i}].dc75"), r.vout_dc75, Tol::Volts));
            }
        }
        "fig6" => {
            for (i, r) in ex::fig6_fig7(t, q, &s.fig6_v).iter().enumerate() {
                for (k, &x) in r.vout.iter().enumerate() {
                    out.push(v(format!("fig6[{i}].vout{k}"), x, Tol::Volts));
                }
            }
        }
        "table2" => {
            for (i, r) in ex::table2(t, q).iter().enumerate() {
                out.push(v(format!("table2[{i}].v_sim"), r.v_sim, Tol::Volts));
            }
        }
        "fig8" => {
            for (i, r) in ex::fig8(t, q, &s.fig8_f).iter().enumerate() {
                out.push(v(format!("fig8[{i}].power"), r.power, Tol::Relative));
            }
        }
        "ablation_rout" => {
            let rows = ex::ablation_rout(t, q, &[2e3, 20e3, 200e3], 3);
            for (i, r) in rows.iter().enumerate() {
                out.push(v(
                    format!("ablation_rout[{i}].max_inl"),
                    r.max_inl,
                    Tol::Volts,
                ));
            }
        }
        "ablation_cout" => {
            let couts = [100e-15, 300e-15, 1e-12, 3e-12, 10e-12];
            for (i, r) in ex::ablation_cout(t, q, &couts).iter().enumerate() {
                out.push(v(
                    format!("ablation_cout[{i}].ripple"),
                    r.ripple,
                    Tol::Volts,
                ));
            }
        }
        "mc" => {
            let (sw, ckt) = mc_seeds(s.seed);
            let seed = s.seed;
            for (i, m) in ex::mc_switch_level(t, 64, sw) {
                for (field, x) in [
                    ("mean", m.mean),
                    ("std", m.std),
                    ("min", m.min),
                    ("max", m.max),
                ] {
                    out.push(v(format!("mc@{seed}.switch[{i}].{field}"), x, Tol::Volts));
                }
            }
            let m = ex::mc_circuit_level(t, q, 2, 8, ckt);
            out.push(v(format!("mc@{seed}.circuit.mean"), m.mean, Tol::Volts));
            out.push(v(format!("mc@{seed}.circuit.std"), m.std, Tol::Volts));
        }
        "xval" => {
            for (i, va, vs, vc) in ex::evaluator_cross_validation(t, q) {
                out.push(v(format!("xval[{i}].analytic"), va, Tol::Volts));
                out.push(v(format!("xval[{i}].switch"), vs, Tol::Volts));
                out.push(v(format!("xval[{i}].circuit"), vc, Tol::Volts));
            }
        }
        "full_perceptron" => {
            for r in ex::full_perceptron(t, q) {
                let i = r.row;
                let fires = |b: bool| f64::from(u8::from(b));
                out.push(v(
                    format!("full[{i}].fires_2v5"),
                    fires(r.fires_nominal),
                    Tol::Exact,
                ));
                out.push(v(
                    format!("full[{i}].fires_1v8"),
                    fires(r.fires_low_vdd),
                    Tol::Exact,
                ));
            }
        }
        other => unreachable!("unknown experiment {other}"),
    }
    out
}

/// Whether `value` matches its recorded counterpart. Monte Carlo rows of
/// a seed that was not recorded are checked against the default seed's
/// rows instead: same spread of trials, so the mean moves by at most a
/// few standard errors.
fn matches(s: &Setup, value: &Value) -> bool {
    if !value.value.is_finite() {
        return false;
    }
    if let Some(&want) = s.recorded.get(&value.name) {
        return match value.tol {
            Tol::Volts => (value.value - want).abs() <= 1e-4,
            Tol::Relative => (value.value - want).abs() <= 1e-4 * want.abs(),
            Tol::Exact => value.value == want,
        };
    }
    let Some(rest) = value.name.strip_prefix(&format!("mc@{}.", s.seed)) else {
        return false;
    };
    let Some(&want) = s
        .recorded
        .get(&format!("mc@{}.{rest}", crate::DEFAULT_SEED))
    else {
        return false;
    };
    if rest.ends_with(".std") {
        (0.0..=2.0 * want + 1e-3).contains(&value.value)
    } else if rest.ends_with(".mean") {
        (value.value - want).abs() <= 0.03
    } else {
        (value.value - want).abs() <= 0.05
    }
}

/// Runs every experiment once, each in a span named after it, and checks
/// every value it returns.
pub fn trace(s: &Setup, out: &mut Outcome) {
    for name in EXPERIMENTS {
        for value in spans::span(name, None, || experiment(s, name)) {
            out.check(matches(s, &value));
        }
    }
}

/// Reports each experiment's span time as `figures.<experiment>_s`.
pub fn report(totals: &BTreeMap<&'static str, spans::Totals>, out: &mut Outcome) {
    for name in EXPERIMENTS {
        if let Some(t) = totals.get(name) {
            out.metric(&format!("figures.{name}_s"), t.total_ns as f64 * 1e-9, 1);
        }
    }
}

/// Reference lines `name<TAB>value` of one seed: every value, or only the
/// seed-dependent Monte Carlo rows.
pub fn record(s: &Setup, all: bool) -> Vec<String> {
    EXPERIMENTS
        .iter()
        .filter(|&&name| all || name == "mc")
        .flat_map(|&name| experiment(s, name))
        .map(|v| format!("{}\t{:?}", v.name, v.value))
        .collect()
}
