//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- all
//! cargo run -p bench --release --bin repro -- fig4 table2 ...
//! cargo run -p bench --release --bin repro -- --fast all
//! ```
//!
//! Prints the paper's tables/series and writes CSVs into `results/`.

use std::time::Instant;

use bench::experiments as ex;
use bench::output::{f, render_table, results_dir, write_csv};
use pwmcell::{SimQuality, Technology};

const EXPERIMENTS: &[&str] = &[
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table2",
    "fig8",
    "ablation-rout",
    "ablation-cout",
    "mc",
    "table2-freq",
    "baseline",
    "kessels",
    "xval",
    "train",
    "ablation-bits",
    "scaling",
    "full-perceptron",
    "temperature",
    "spice",
    "noise",
    "map",
    "lint",
    "verify",
    "analyze",
    "trace",
    "faults",
    "serve",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let no_collapse = args.iter().any(|a| a == "--no-collapse");
    let no_triage = args.iter().any(|a| a == "--no-triage");
    let triage_only = args.iter().any(|a| a == "--triage-only");
    let queries = check_flags(&args)
        .and_then(|()| parse_queries(&args))
        .unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        });
    let mut skip_next = false;
    let mut selected: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--queries" {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .map(|s| s.as_str())
        .collect();
    if selected.is_empty() || selected.contains(&"all") {
        selected = EXPERIMENTS.to_vec();
    }
    for s in &selected {
        if !EXPERIMENTS.contains(s) {
            eprintln!("unknown experiment '{s}'. known: all {EXPERIMENTS:?}");
            std::process::exit(2);
        }
    }

    let tech = Technology::umc65_like();
    let quality = if fast {
        SimQuality::fast()
    } else {
        SimQuality::paper()
    };
    println!("PWM mixed-signal perceptron — paper reproduction harness");
    println!(
        "Table I parameters: Vdd={}, n={:.0}nm / p={:.0}nm x L={:.1}um, Cout(inv)={}, Cout(adder)={}, Rout={}, f={}",
        tech.vdd,
        tech.nmos.w * 1e9,
        tech.pmos.w * 1e9,
        tech.nmos.l * 1e6,
        tech.cout_inverter,
        tech.cout_adder,
        tech.rout,
        tech.frequency,
    );
    println!(
        "quality: {} ({} steps/period, settle {}τ)",
        if fast { "fast" } else { "paper" },
        quality.steps_per_period,
        quality.settle_time_constants
    );

    for name in selected {
        let t0 = Instant::now();
        match name {
            "fig4" => fig4(&tech, &quality, fast),
            "fig5" => fig5(&tech, &quality, fast),
            "fig6" | "fig7" => fig6_fig7(&tech, &quality, fast, name),
            "table2" => table2(&tech, &quality),
            "fig8" => fig8(&tech, &quality, fast),
            "ablation-rout" => ablation_rout(&tech, &quality, fast),
            "ablation-cout" => ablation_cout(&tech, &quality),
            "mc" => mc(&tech, &quality, fast),
            "table2-freq" => table2_freq(&tech),
            "baseline" => baseline(),
            "kessels" => kessels(),
            "xval" => xval(&tech, &quality),
            "train" => train_demo(),
            "ablation-bits" => ablation_bits(),
            "scaling" => scaling(&tech),
            "full-perceptron" => full_perceptron(&tech, &quality),
            "temperature" => temperature(&tech),
            "spice" => spice(&tech),
            "noise" => noise(&tech),
            "map" => map(&tech),
            "lint" => lint_report(&tech),
            "verify" => verify_report(&tech),
            "analyze" => analyze_report(&tech),
            "trace" => trace(&tech),
            "faults" => faults(&tech, fast, no_collapse, no_triage, triage_only),
            "serve" => serve(queries, fast),
            _ => unreachable!(),
        }
        eprintln!("  [{name} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
}

/// Every flag `repro` takes; `--queries` takes a value.
const FLAGS: &[&str] = &[
    "--fast",
    "--no-collapse",
    "--no-triage",
    "--triage-only",
    "--queries",
];

/// Rejects any `--` argument that is not in [`FLAGS`], with the message to
/// print.
fn check_flags(args: &[String]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        Some(flag) => Err(format!("unknown flag '{flag}'. known: {FLAGS:?}")),
        None => Ok(()),
    }
}

/// The value of `--queries`, when given. Zero, a missing value and a
/// non-number are errors, reported with the message to print.
fn parse_queries(args: &[String]) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == "--queries") else {
        return Ok(None);
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "--queries expects a positive integer, got '{value}'"
        )),
    }
}

fn fig4(tech: &Technology, q: &SimQuality, fast: bool) {
    let points = if fast { 6 } else { 11 };
    let rows = ex::fig4(tech, q, points);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.duty * 100.0, 0),
                f(r.vout_no_load, 3),
                f(r.vout_5k, 3),
                f(r.vout_100k, 3),
                f(r.ideal, 3),
            ]
        })
        .collect();
    let header = ["DC %", "no load V", "5kOhm V", "100kOhm V", "ideal V"];
    println!(
        "{}",
        render_table("Fig. 4 — inverter Vout vs duty cycle", &header, &table)
    );
    write_csv(&results_dir().join("fig4.csv"), &header, &table);
}

fn fig5(tech: &Technology, q: &SimQuality, fast: bool) {
    let freqs = ex::fig5_frequencies(if fast { 4 } else { 9 });
    let rows = ex::fig5(tech, q, &freqs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.frequency / 1e6, 0),
                f(r.vout_dc25, 3),
                f(r.vout_dc50, 3),
                f(r.vout_dc75, 3),
            ]
        })
        .collect();
    let header = ["f MHz", "DC=25%", "DC=50%", "DC=75%"];
    println!(
        "{}",
        render_table("Fig. 5 — inverter Vout vs input frequency", &header, &table)
    );
    write_csv(&results_dir().join("fig5.csv"), &header, &table);
}

fn fig6_fig7(tech: &Technology, q: &SimQuality, fast: bool, which: &str) {
    let vdds = ex::fig6_vdds(if fast { 5 } else { 10 });
    let rows = ex::fig6_fig7(tech, q, &vdds);
    if which == "fig6" {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    f(r.vdd, 2),
                    f(r.vout[0], 3),
                    f(r.vout[1], 3),
                    f(r.vout[2], 3),
                ]
            })
            .collect();
        let header = ["Vdd V", "DC=25%", "DC=50%", "DC=75%"];
        println!(
            "{}",
            render_table(
                "Fig. 6 — inverter Vout (absolute) vs supply",
                &header,
                &table
            )
        );
        write_csv(&results_dir().join("fig6.csv"), &header, &table);
    } else {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    f(r.vdd, 2),
                    f(r.ratio[0], 3),
                    f(r.ratio[1], 3),
                    f(r.ratio[2], 3),
                ]
            })
            .collect();
        let header = ["Vdd V", "DC=25%", "DC=50%", "DC=75%"];
        println!(
            "{}",
            render_table("Fig. 7 — inverter Vout/Vdd vs supply", &header, &table)
        );
        write_csv(&results_dir().join("fig7.csv"), &header, &table);
    }
}

fn table2(tech: &Technology, q: &SimQuality) {
    let rows = ex::table2(tech, q);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!(
                    "{}%/{} {}%/{} {}%/{}",
                    (r.duties[0] * 100.0) as u32,
                    r.weights[0],
                    (r.duties[1] * 100.0) as u32,
                    r.weights[1],
                    (r.duties[2] * 100.0) as u32,
                    r.weights[2]
                ),
                f(r.v_theory, 3),
                f(r.v_sim, 3),
                f(r.error, 3),
                f(r.paper.0, 2),
                f(r.paper.1, 2),
            ]
        })
        .collect();
    let header = [
        "DC/W per input",
        "Eq.2 V",
        "sim V",
        "err V",
        "paper th.",
        "paper sim",
    ];
    println!(
        "{}",
        render_table("Table II — 3×3 weighted adder", &header, &table)
    );
    write_csv(&results_dir().join("table2.csv"), &header, &table);
}

fn fig8(tech: &Technology, q: &SimQuality, fast: bool) {
    let freqs = ex::fig8_frequencies(if fast { 4 } else { 10 });
    let rows = ex::fig8(tech, q, &freqs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![f(r.frequency / 1e6, 0), f(r.power * 1e6, 1)])
        .collect();
    let header = ["f MHz", "power uW"];
    println!(
        "{}",
        render_table(
            "Fig. 8 — adder average supply power vs input frequency",
            &header,
            &table
        )
    );
    write_csv(&results_dir().join("fig8.csv"), &header, &table);
}

fn ablation_rout(tech: &Technology, q: &SimQuality, fast: bool) {
    let routs: Vec<f64> = if fast {
        vec![2e3, 20e3, 200e3]
    } else {
        vec![1e3, 2e3, 5e3, 10e3, 20e3, 50e3, 100e3, 200e3, 500e3]
    };
    let rows = ex::ablation_rout(tech, q, &routs, if fast { 3 } else { 7 });
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![f(r.rout / 1e3, 0), f(r.max_inl * 1e3, 1)])
        .collect();
    let header = ["Rout kOhm", "max INL mV"];
    println!(
        "{}",
        render_table("A1 — linearity vs output resistor", &header, &table)
    );
    write_csv(&results_dir().join("ablation_rout.csv"), &header, &table);
}

fn ablation_cout(tech: &Technology, q: &SimQuality) {
    let couts = vec![100e-15, 300e-15, 1e-12, 3e-12, 10e-12];
    let rows = ex::ablation_cout(tech, q, &couts);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.cout * 1e12, 2),
                f(r.ripple * 1e3, 2),
                f(r.settle * 1e9, 0),
            ]
        })
        .collect();
    let header = ["Cout pF", "ripple mV", "settle ns"];
    println!(
        "{}",
        render_table("A2 — ripple vs settling trade-off", &header, &table)
    );
    write_csv(&results_dir().join("ablation_cout.csv"), &header, &table);
}

fn mc(tech: &Technology, q: &SimQuality, fast: bool) {
    let trials_switch = if fast { 64 } else { 512 };
    let rows = ex::mc_switch_level(tech, trials_switch, 0xC0FFEE);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(i, s)| {
            vec![
                format!("{}", i + 1),
                f(s.mean, 3),
                f(s.std * 1e3, 1),
                f(s.relative_std() * 100.0, 2),
                f(s.min, 3),
                f(s.max, 3),
            ]
        })
        .collect();
    let header = ["row", "mean V", "std mV", "cv %", "min V", "max V"];
    println!(
        "{}",
        render_table(
            &format!("A3 — switch-level Monte Carlo ({trials_switch} trials/row, global corners)"),
            &header,
            &table
        )
    );
    write_csv(&results_dir().join("mc_switch.csv"), &header, &table);

    let trials_ckt = if fast { 8 } else { 24 };
    let s = ex::mc_circuit_level(tech, q, 2, trials_ckt, 0xBEEF);
    println!(
        "A3 — transistor-level per-device MC, Table II row 3, {trials_ckt} trials: mean {:.3} V, std {:.1} mV, cv {:.2}%",
        s.mean,
        s.std * 1e3,
        s.relative_std() * 100.0
    );
}

fn table2_freq(tech: &Technology) {
    let freqs = [1e6, 10e6, 100e6, 500e6, 1e9];
    let rows = ex::table2_frequency_invariance(tech, &freqs);
    let mut table = Vec::new();
    for (i, _) in ex::TABLE2_CONFIGS.iter().enumerate() {
        let mut cells = vec![format!("{}", i + 1)];
        for &freq in &freqs {
            let v = rows
                .iter()
                .find(|(fq, ri, _)| *ri == i && (*fq - freq).abs() < 1.0)
                .map(|(_, _, v)| *v)
                .unwrap_or(f64::NAN);
            cells.push(f(v, 3));
        }
        table.push(cells);
    }
    let header = ["row", "1MHz", "10MHz", "100MHz", "500MHz", "1GHz"];
    println!(
        "{}",
        render_table(
            "A4 — Table II output vs frequency (switch-level)",
            &header,
            &table
        )
    );
    write_csv(&results_dir().join("table2_freq.csv"), &header, &table);
}

fn baseline() {
    let c = ex::baseline_comparison(10e6, 50);
    println!("\n== A5 — PWM adder vs conventional digital perceptron ==");
    println!(
        "PWM 3×3 weighted adder:      {:>6} transistors",
        c.pwm_transistors
    );
    println!(
        "Digital MAC (3×8b×3b):       {:>6} transistors ({:.1}× more)",
        c.digital_transistors,
        c.digital_transistors as f64 / c.pwm_transistors as f64
    );
    println!(
        "Digital dynamic power at {:.0} Meval/s: {:.1} µW",
        c.eval_rate / 1e6,
        c.digital_power * 1e6
    );
}

fn kessels() {
    let rows = ex::kessels_duty_table(4);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(m, expect, meas)| vec![format!("{m}"), f(*expect * 100.0, 2), f(*meas * 100.0, 2)])
        .collect();
    let header = ["M", "expected %", "measured %"];
    println!(
        "{}",
        render_table(
            "A6 — Kessels-style counter PWM generator duty accuracy",
            &header,
            &table
        )
    );
    write_csv(&results_dir().join("kessels.csv"), &header, &table);

    // Generator cost at two clock rates: the PWM source is cheap next to
    // the digital MAC and its power scales with the clock, as expected.
    for (label, period_ps) in [("100 MHz", 10_000u64), ("500 MHz", 2_000)] {
        let r = ex::kessels_power(8, period_ps, 4);
        println!(
            "8-bit generator at {label}: {} transistors, {:.1} µW dynamic",
            r.transistors,
            r.dynamic_watts * 1e6
        );
    }

    // Waveform artefact: two counter wraps as a GTKWave-compatible VCD.
    let vcd = ex::kessels_waveform_vcd(4, 5);
    let path = results_dir().join("kessels.vcd");
    match std::fs::write(&path, &vcd) {
        Ok(()) => println!("wrote {} ({} bytes)", path.display(), vcd.len()),
        Err(e) => eprintln!("  warning: could not write {}: {e}", path.display()),
    }
}

fn xval(tech: &Technology, q: &SimQuality) {
    let rows = ex::evaluator_cross_validation(tech, q);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(i, va, vs, vc)| {
            vec![
                format!("{}", i + 1),
                f(*va, 3),
                f(*vs, 3),
                f(*vc, 3),
                f((vs - va) * 1e3, 1),
                f((vc - va) * 1e3, 1),
            ]
        })
        .collect();
    let header = [
        "row",
        "analytic V",
        "switch V",
        "circuit V",
        "Δsw mV",
        "Δckt mV",
    ];
    println!(
        "{}",
        render_table("A7 — evaluator cross-validation", &header, &table)
    );
    write_csv(&results_dir().join("xval.csv"), &header, &table);
}

fn train_demo() {
    let (train_acc, test_acc) = ex::train_demo(2024);
    println!("\n== End-to-end — hardware-in-the-loop training (switch-level) ==");
    println!("train accuracy: {:.1}%", train_acc * 100.0);
    println!("test accuracy:  {:.1}%", test_acc * 100.0);
}

fn ablation_bits() {
    let rows = ex::ablation_weight_bits(31337, &[1, 2, 3, 4, 5, 6]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.bits),
                f(r.train_accuracy * 100.0, 1),
                f(r.test_accuracy * 100.0, 1),
                format!("{}", r.transistors),
            ]
        })
        .collect();
    let header = ["bits", "train %", "test %", "transistors"];
    println!(
        "{}",
        render_table(
            "A8 — accuracy vs weight precision (4 inputs, 1% margin, switch-level HIL)",
            &header,
            &table
        )
    );
    write_csv(&results_dir().join("ablation_bits.csv"), &header, &table);
}

fn map(tech: &Technology) {
    let weights = [7u32, 3];
    let reference = 0.35;
    let grid = 41;
    let pts = ex::decision_map(tech, &weights, reference, grid);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                f(p.d0, 3),
                f(p.d1, 3),
                f(p.ratio, 4),
                format!("{}", p.fires as u8),
            ]
        })
        .collect();
    let header = ["d0", "d1", "ratio", "fires"];
    write_csv(&results_dir().join("decision_map.csv"), &header, &rows);
    // Console: a coarse ASCII rendering of the boundary.
    println!(
        "\n== Decision map — weights {weights:?}, reference {reference}·Vdd (switch-level) =="
    );
    let coarse = 21;
    let coarse_pts = ex::decision_map(tech, &weights, reference, coarse);
    for row in 0..coarse {
        let d1 = 1.0 - row as f64 / (coarse - 1) as f64;
        let line: String = (0..coarse)
            .map(|col| {
                let d0 = col as f64 / (coarse - 1) as f64;
                let p = coarse_pts
                    .iter()
                    .min_by(|a, b| {
                        let da = (a.d0 - d0).abs() + (a.d1 - d1).abs();
                        let db = (b.d0 - d0).abs() + (b.d1 - d1).abs();
                        da.partial_cmp(&db).expect("finite")
                    })
                    .expect("grid non-empty");
                if p.fires {
                    '#'
                } else {
                    '.'
                }
            })
            .collect();
        println!("  {line}");
    }
    println!("  (d0 →, d1 ↑; '#' fires — the boundary is the line 7·d0 + 3·d1 = 7.35)");
}

fn noise(tech: &Technology) {
    let couts = [0.1e-12, 1e-12, 10e-12];
    let rows = ex::noise_budget(tech, &couts);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.cout * 1e12, 1),
                f(r.rms_noise * 1e6, 1),
                f(r.ktc * 1e6, 1),
                f(r.lsb_over_noise, 0),
            ]
        })
        .collect();
    let header = ["Cout pF", "RMS noise µV", "kT/C µV", "LSB/noise"];
    println!(
        "{}",
        render_table(
            "A12 — adder output thermal-noise budget (adjoint .NOISE)",
            &header,
            &table
        )
    );
    write_csv(&results_dir().join("noise.csv"), &header, &table);
    println!("noise sits at the kT/C bound, orders below the 119 mV LSB —");
    println!("mismatch (A3), not thermal noise, limits the architecture's precision.");
}

fn spice(tech: &Technology) {
    use mssim::export::to_spice;
    use mssim::prelude::*;

    println!("\n== SPICE export — cross-validation decks ==");
    let dir = results_dir();

    // Fig. 2 inverter at the paper's operating point.
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    ckt.vsource(
        "VIN",
        inp,
        Circuit::GND,
        Waveform::pwm(tech.vdd.value(), tech.frequency.value(), 0.25),
    );
    pwmcell::Inverter::build(
        &mut ckt,
        tech,
        "inv",
        inp,
        vdd,
        Some(tech.rout),
        tech.cout_inverter,
    );
    let deck = to_spice(&ckt, "Fig.2 transcoding inverter, DC=25%, 500MHz");
    std::fs::write(dir.join("inverter.sp"), &deck).expect("write deck");
    println!(
        "  wrote {} ({} lines)",
        dir.join("inverter.sp").display(),
        deck.lines().count()
    );

    // Full 62-transistor perceptron, Table II row 1.
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let dut = pwmcell::perceptron_circuit::PerceptronCircuit::build(
        &mut ckt,
        tech,
        "p",
        vdd,
        &[7, 7, 7],
        pwmcell::AdderSpec::paper_3x3(),
        0.5,
    );
    for (i, d) in [0.7, 0.8, 0.9].into_iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            dut.adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), d),
        );
    }
    let deck = to_spice(&ckt, "Full Fig.1 perceptron, Table II row 1");
    std::fs::write(dir.join("full_perceptron.sp"), &deck).expect("write deck");
    println!(
        "  wrote {} ({} lines)",
        dir.join("full_perceptron.sp").display(),
        deck.lines().count()
    );
}

fn temperature(tech: &Technology) {
    let temps = [-40.0, 0.0, 27.0, 85.0, 125.0];
    let rows = ex::temperature_sweep(tech, &temps);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![f(r.celsius, 0)];
            cells.extend(r.vouts.iter().map(|v| f(*v, 3)));
            cells.push(f(r.max_shift * 1e3, 1));
            cells
        })
        .collect();
    let header = [
        "T °C",
        "row1 V",
        "row2 V",
        "row3 V",
        "row4 V",
        "row5 V",
        "row6 V",
        "max Δ mV",
    ];
    println!(
        "{}",
        render_table(
            "A11 — Table II outputs across -40..125 °C (switch-level)",
            &header,
            &table
        )
    );
    write_csv(&results_dir().join("temperature.csv"), &header, &table);
}

fn full_perceptron(tech: &Technology, q: &SimQuality) {
    let rows = ex::full_perceptron(tech, q);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.row + 1),
                f(r.ratio, 3),
                format!("{}", r.expected as u8),
                format!("{}", r.fires_nominal as u8),
                format!("{}", r.fires_low_vdd as u8),
            ]
        })
        .collect();
    let header = ["row", "Eq.2/Vdd", "ideal", "2.5V", "1.8V"];
    println!(
        "{}",
        render_table(
            "A10 — full 62-transistor perceptron (adder + reference + comparator)",
            &header,
            &table
        )
    );
    write_csv(&results_dir().join("full_perceptron.csv"), &header, &table);
    let agree = rows
        .iter()
        .filter(|r| r.fires_nominal == r.expected && r.fires_low_vdd == r.expected)
        .count();
    println!("decisions matching the ideal comparator at both supplies: {agree}/6");
}

/// Every analog circuit the reproduction ships, built exactly as the
/// experiments build them: the Fig. 2 transcoding inverter, the Fig. 3
/// 3×3 weighted adder and the full Fig. 1 perceptron. Shared between the
/// `lint` and `verify` experiments so both gate the same artifacts.
fn shipped_analog_circuits(tech: &Technology) -> Vec<(String, mssim::Circuit)> {
    use mssim::prelude::*;

    let mut analog: Vec<(String, Circuit)> = Vec::new();

    // Fig. 2 transcoding inverter at the paper's operating point.
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    ckt.vsource(
        "VIN",
        inp,
        Circuit::GND,
        Waveform::pwm(tech.vdd.value(), tech.frequency.value(), 0.25),
    );
    pwmcell::Inverter::build(
        &mut ckt,
        tech,
        "inv",
        inp,
        vdd,
        Some(tech.rout),
        tech.cout_inverter,
    );
    analog.push(("Fig.2 inverter".into(), ckt));

    // 3×3 weighted adder (Fig. 3 / Table II topology).
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = pwmcell::WeightedAdder::build(
        &mut ckt,
        tech,
        "add",
        vdd,
        &[7, 7, 7],
        pwmcell::AdderSpec::paper_3x3(),
    );
    for (i, input) in adder.inputs.iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            *input,
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), 0.5),
        );
    }
    analog.push(("Fig.3 3x3 weighted adder".into(), ckt));

    // Full 62-transistor perceptron (Fig. 1).
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let dut = pwmcell::perceptron_circuit::PerceptronCircuit::build(
        &mut ckt,
        tech,
        "p",
        vdd,
        &[7, 7, 7],
        pwmcell::AdderSpec::paper_3x3(),
        0.5,
    );
    for (i, d) in [0.7, 0.8, 0.9].into_iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            dut.adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), d),
        );
    }
    analog.push(("Fig.1 full perceptron".into(), ckt));

    analog
}

/// The digital blocks the reproduction ships: the Kessels-counter PWM
/// generator and the baseline fixed-point MAC perceptron.
fn shipped_digital_netlists() -> Vec<(String, gatesim::Netlist)> {
    let mut digital: Vec<(String, gatesim::Netlist)> = Vec::new();
    let mut nl = gatesim::Netlist::new();
    gatesim::kessels::KesselsPwm::build(&mut nl, 8);
    digital.push(("Kessels PWM generator (8-bit)".into(), nl));
    let baseline = baseline::DigitalPerceptron::new(baseline::BaselineSpec::matched_to_paper());
    digital.push(("digital MAC baseline".into(), baseline.netlist().clone()));
    digital
}

/// Lints every circuit and netlist the reproduction ships: the analog
/// cells through `mssim::lint` and the digital blocks through
/// `gatesim::lint`. Exits nonzero if anything reaches deny severity, so
/// CI can gate on it.
fn lint_report(tech: &Technology) {
    println!("\n== Static analysis — every shipped circuit and netlist ==");
    let mut denials = 0usize;

    for (name, ckt) in &shipped_analog_circuits(tech) {
        let report = mssim::lint::lint(ckt);
        denials += report.denials().count();
        print!("[analog] {name}: {report}");
    }

    for (name, nl) in &shipped_digital_netlists() {
        let report = gatesim::lint::lint(nl);
        denials += report.denials().count();
        print!("[digital] {name}: {report}");
    }

    if denials > 0 {
        eprintln!("lint: {denials} deny-level diagnostic(s) — failing");
        std::process::exit(1);
    }
    println!("lint: all shipped circuits clean of deny-level diagnostics");
}

/// Full static verification of every shipped analog circuit: the lint
/// pass (including the MS020-series structural-solvability analysis) plus
/// the PL-series stamp-plan verifier over the compiled DC and transient
/// plans. Exits nonzero on any denial or plan violation, so CI proves
/// every plan sound in release builds too (where the compile-time
/// `debug_assertions` hook is compiled out).
fn verify_report(tech: &Technology) {
    println!("\n== Static verification — structural solvability + plan soundness ==");
    let mut unsound = 0usize;

    for (name, ckt) in &shipped_analog_circuits(tech) {
        let report = mssim::verify_circuit(ckt);
        if !report.is_sound() {
            unsound += 1;
        }
        print!("[verify] {name}: {report}");
    }

    if unsound > 0 {
        eprintln!("verify: {unsound} circuit(s) failed static verification — failing");
        std::process::exit(1);
    }
    println!("verify: all shipped circuits structurally solvable, all compiled plans sound");
}

/// Numeric abstract interpretation of every shipped analog circuit: the
/// interval analyzer ([`mssim::analyze`]) walks each compiled stamp plan
/// with every device parameter widened over ±5% component tolerance and
/// a 0.9–1.0 supply window, and certifies the absence of
/// guaranteed-singular pivots (MS030) and overflow-prone stamp ranges
/// (MS031) over the whole envelope. Warn-level findings (cancellation,
/// certified condition bounds) are reported but do not fail the run.
/// Writes the `mssim-analyze-v2` record `results/ANALYZE_mssim.json`
/// (findings only, no timings, so it regenerates byte for byte) and exits
/// nonzero on any denial, so CI gates on it.
fn analyze_report(tech: &Technology) {
    use bench::output::results_dir;
    use mssim::prelude::Ranges;

    println!(
        "\n== Abstract interpretation — widened interval analysis of every shipped circuit =="
    );
    let ranges = Ranges::default()
        .with_tolerance(0.05)
        .with_supply_scale(0.9, 1.0);
    let mut denials = 0usize;
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mssim-analyze-v2\",\n");
    json.push_str("  \"tolerance\": 0.05,\n  \"supply_scale\": [0.9, 1.0],\n");
    json.push_str("  \"circuits\": [\n");
    let circuits = shipped_analog_circuits(tech);
    for (idx, (name, ckt)) in circuits.iter().enumerate() {
        let report = mssim::analyze_circuit(ckt, &ranges);
        denials += report.denials().count();
        print!("[analyze] {name}: {report}");
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{name}\",\n"));
        json.push_str(&format!(
            "      \"denials\": {},\n",
            report.denials().count()
        ));
        json.push_str(&format!(
            "      \"warnings\": {},\n",
            report.warnings().count()
        ));
        json.push_str("      \"findings\": [");
        for (i, d) in report.findings().iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{}\"", d.code.id()));
        }
        json.push_str("]\n");
        json.push_str(if idx + 1 == circuits.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ]\n}\n");
    let path = results_dir().join("ANALYZE_mssim.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {} ({} bytes)", path.display(), json.len()),
        Err(e) => eprintln!("  warning: could not write {}: {e}", path.display()),
    }
    if denials > 0 {
        eprintln!("analyze: {denials} deny-level finding(s) over the declared ranges — failing");
        std::process::exit(1);
    }
    println!("analyze: every shipped circuit is certified free of MS030/MS031 over the envelope");
}

/// A PWM-driven switch-level adder of shape `spec` at technology `tech`,
/// one input per entry of `duties`.
fn switch_adder_circuit(
    tech: &Technology,
    spec: pwmcell::AdderSpec,
    weights: &[u32],
    duties: &[f64],
) -> mssim::Circuit {
    use mssim::{Circuit, Waveform};

    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = pwmcell::SwitchAdder::build(&mut ckt, tech, "add", vdd, weights, spec);
    for (i, &d) in duties.iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), d),
        );
    }
    ckt
}

/// Structured-trace smoke run: replays the 3×3 and 8×8 switch-level
/// adder transients of `switch_adder_circuit` through a fully
/// instrumented [`Session`](mssim::Session) (memory recorder + summary +
/// JSONL writer fan-out), cross-checks the event-derived Newton counters
/// against the solver's own end-of-analysis report, prints the aggregate
/// tables and writes the schema-versioned trace
/// `results/TRACE_mssim.jsonl`. Exits
/// nonzero on any counter mismatch, so CI gates on telemetry staying
/// truthful.
fn trace(tech: &Technology) {
    use mssim::prelude::*;
    use mssim::telemetry::{Event, SolverCounters, TRACE_SCHEMA};
    use pwmcell::AdderSpec;

    println!("\n== Structured trace — instrumented Session on the shipped adders ==");
    let dt = 10e-12;
    let steps = 2000usize;
    let fixtures: [(&str, Circuit); 2] = [
        (
            "tran_adder3x3",
            switch_adder_circuit(
                tech,
                AdderSpec::paper_3x3(),
                &[7, 7, 7],
                &[0.70, 0.80, 0.90],
            ),
        ),
        (
            "tran_adder8x8",
            switch_adder_circuit(
                tech,
                AdderSpec::new(8, 8),
                &[255, 170, 129, 100, 77, 64, 31, 9],
                &[0.05, 0.20, 0.35, 0.50, 0.60, 0.75, 0.85, 0.95],
            ),
        ),
    ];

    let jsonl = JsonlWriter::new(Vec::<u8>::new());
    let mut sink = Tee(MemoryRecorder::new(), Tee(Summary::new(), jsonl));
    let tran = Transient::new(dt, steps as f64 * dt)
        .use_initial_conditions()
        .record_every(16);
    let mut mismatches = 0usize;
    for (name, ckt) in &fixtures {
        let before = sink.0.counter_value("newton.iterations");
        let fallbacks_before = sink.0.counter_value("plan.pivot_fallbacks");
        let events_before = sink.0.events().len();
        Session::new(ckt)
            .observe(&mut sink)
            .transient(&tran)
            .expect("transient converges");
        let derived = sink.0.counter_value("newton.iterations") - before;
        let derived_fallbacks = sink.0.counter_value("plan.pivot_fallbacks") - fallbacks_before;
        // The solver's own accounting: sum of every SolverReport the
        // fixture emitted (the transient plus its nested DC operating
        // point), straight from `SolverStats`.
        let reported: SolverCounters = sink.0.events()[events_before..]
            .iter()
            .filter_map(|e| match e {
                Event::SolverReport { counters, .. } => Some(*counters),
                _ => None,
            })
            .fold(SolverCounters::default(), |acc, c| SolverCounters {
                iterations: acc.iterations + c.iterations,
                factorizations: acc.factorizations + c.factorizations,
                pivot_fallbacks: acc.pivot_fallbacks + c.pivot_fallbacks,
                back_substitutions: acc.back_substitutions + c.back_substitutions,
                bypasses: acc.bypasses + c.bypasses,
                rebases: acc.rebases + c.rebases,
                device_evals: acc.device_evals + c.device_evals,
                limit_clamps: acc.limit_clamps + c.limit_clamps,
                latency_hits: acc.latency_hits + c.latency_hits,
            });
        for (counter, derived, reported) in [
            ("newton.iterations", derived, reported.iterations),
            (
                "plan.pivot_fallbacks",
                derived_fallbacks,
                reported.pivot_fallbacks,
            ),
        ] {
            let ok = derived == reported;
            println!(
                "{name}: {counter} from events = {derived}, from SolverStats = {reported} [{}]",
                if ok { "ok" } else { "MISMATCH" }
            );
            if !ok {
                mismatches += 1;
            }
        }
        // SweepPoint-free single runs: also sanity-check the step count.
        let accepted = sink.0.counter_value("tran.steps_accepted");
        println!("{name}: cumulative accepted steps = {accepted}");
    }

    println!("\n{}", sink.1 .0.render());
    let Tee(_, Tee(_, jsonl)) = sink;
    let bytes = jsonl.finish().expect("in-memory writer cannot fail");
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    let path = results_dir().join("TRACE_mssim.jsonl");
    match std::fs::write(&path, &bytes) {
        Ok(()) => println!(
            "wrote {} ({lines} {TRACE_SCHEMA} lines, {} bytes)",
            path.display(),
            bytes.len()
        ),
        Err(e) => eprintln!("  warning: could not write {}: {e}", path.display()),
    }
    if mismatches > 0 {
        eprintln!("trace: {mismatches} counter cross-check(s) failed — failing");
        std::process::exit(1);
    }
    println!("trace: event-derived counters agree with the solver's own statistics");
}

/// Fault-injection campaign over the paper's 3×3 switch-level adder:
/// enumerates the single-fault universe (stuck switches, open/short/
/// drifted resistors, leaky output cap, drooping supply, jittery PWM
/// sources, curated net bridges), simulates every faulty netlist under
/// the convergence-rescue ladder, classifies each settled output against
/// the Eq. 2 analytic value, prints the verdict table (sorted by fault
/// label) and writes the schema-versioned record
/// `results/FAULTS_mssim.json` at `--fast` and
/// `results/FAULTS_full_mssim.json` at full quality (the MOS campaign
/// likewise, as `FAULTS_mos_*`). Static fault collapsing is on by default
/// — plan-equivalent faults share one transient — and `--no-collapse`
/// forces the full sweep; both paths produce bitwise-identical verdicts
/// and JSON, which CI cross-checks with `cmp` (pass `--no-triage` on
/// both arms of that pair, since triaged rows legitimately skip their
/// transients). Krawczyk triage is also on by default: fault classes
/// whose guaranteed Vout enclosure lands entirely inside (or entirely
/// outside) the Eq. 2 classification bands are pre-classified without a
/// transient, and the run fails unless triage statically resolves at
/// least 20 % of the switch-level universe. `--triage-only` prints the
/// per-class verdict/enclosure tables for both universes and exits
/// without simulating anything. Exits nonzero if any outcome fails the
/// classification gate, so CI catches both solver regressions and
/// campaign bookkeeping drift.
fn faults(tech: &Technology, fast: bool, no_collapse: bool, no_triage: bool, triage_only: bool) {
    use bench::campaign;
    use mssim::telemetry::MemoryRecorder;
    use pwm_perceptron::faults::{
        switch_adder_campaign_observed, switch_adder_triage, weighted_adder_campaign_observed,
        weighted_adder_triage, CampaignConfig, FaultClass,
    };
    use pwmcell::AdderSpec;

    let weights = [7u32, 5, 3];
    let duties = [0.30, 0.50, 0.70];
    let mut config = CampaignConfig {
        collapse: !no_collapse,
        // Triage implies the collapse partition, so a `--no-collapse`
        // full sweep also runs untriaged.
        triage: !no_triage && !no_collapse,
        ..CampaignConfig::default()
    };
    if fast {
        config.periods = 16;
        config.steps_per_period = 60;
        config.avg_periods = 2;
    }

    if triage_only {
        let t0 = Instant::now();
        let switch = switch_adder_triage(tech, AdderSpec::paper_3x3(), &weights, &duties, &config)
            .expect("the switch-level universe must triage");
        let mos = weighted_adder_triage(tech, AdderSpec::paper_3x3(), &weights, &duties, &config)
            .expect("the MOS universe must triage");
        let wall_ns = t0.elapsed().as_nanos();
        triage_table("switch-level", &switch);
        triage_table("transistor-level (MOS)", &mos);
        println!(
            "triage-only: both universes classified statically in {:.2} ms, zero transients run",
            wall_ns as f64 / 1e6
        );
        if switch.stats.triage_ratio() < 0.20 {
            eprintln!(
                "faults: triage resolves only {:.1}% of the switch universe (< 20%) — failing",
                switch.stats.triage_ratio() * 100.0
            );
            std::process::exit(1);
        }
        return;
    }

    println!("\n== Fault-injection campaign — 3x3 switch-level adder, single-fault universe ==");
    let mut rec = MemoryRecorder::new();
    let report = switch_adder_campaign_observed(
        tech,
        AdderSpec::paper_3x3(),
        &weights,
        &duties,
        &config,
        &mut rec,
    )
    .expect("the golden (fault-free) adder must simulate");

    let table: Vec<Vec<String>> = campaign::sorted_outcomes(&report)
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                o.class.tag().to_string(),
                o.static_verdict.map_or("-".into(), |v| v.tag().to_string()),
                o.vout.map_or("-".into(), |v| f(v, 3)),
                o.error_v.map_or("-".into(), |e| f(e, 3)),
                o.rescue_attempts.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Single-fault verdicts vs Eq. 2 ({} faults, analytic {} V, golden {} V)",
                report.outcomes.len(),
                f(report.analytic_vout, 3),
                f(report.golden_vout, 3),
            ),
            &["fault", "class", "static", "Vout", "|err| V", "rescues"],
            &table
        )
    );
    for tag in campaign::CLASS_TAGS {
        println!("  {tag}: {}", report.count(tag));
    }
    if let Some(errs) = report.error_summary() {
        println!(
            "  |error| over settled outputs: mean {} V, max {} V",
            f(errs.mean, 3),
            f(errs.max, 3)
        );
    }
    println!(
        "  rescue ladder: {} rungs burned across the campaign, {} faults classified in {} sweep points",
        report.rescue_attempts(),
        report.outcomes.len(),
        rec.counter_value("sweep.points"),
    );
    if let Some(stats) = &report.collapse {
        println!(
            "  static collapsing: {} faults -> {} classes, {} transients simulated ({} golden-equivalent)",
            stats.universe, stats.classes, stats.simulated, stats.golden
        );
    } else {
        println!("  static collapsing disabled (--no-collapse): full sweep");
    }
    if let Some(t) = &report.triage {
        println!(
            "  static triage: {} masked + {} failed of {} certified without a transient ({:.1}%), {} simulated",
            t.masked,
            t.failed,
            t.universe,
            t.triage_ratio() * 100.0,
            t.simulated
        );
        if t.triage_ratio() < 0.20 {
            eprintln!(
                "faults: triage resolves only {:.1}% of the switch universe (< 20%) — failing",
                t.triage_ratio() * 100.0
            );
            std::process::exit(1);
        }
    } else if !no_triage && !no_collapse {
        eprintln!("faults: triaged campaign recorded no triage statistics — failing");
        std::process::exit(1);
    }
    let partials = report
        .outcomes
        .iter()
        .filter(|o| matches!(o.class, FaultClass::SolverFail { partial: true }))
        .count();
    if partials > 0 {
        println!("  {partials} fault(s) degraded gracefully to partial waveforms");
    }

    let json = campaign::to_json(&report, &config, fast);
    // One file name per quality: `--fast` records are committed, full ones
    // are git-ignored.
    let quality = if fast { "" } else { "full_" };
    let path = results_dir().join(format!("FAULTS_{quality}mssim.json"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {} ({} bytes)", path.display(), json.len()),
        Err(e) => eprintln!("  warning: could not write {}: {e}", path.display()),
    }
    let bad = campaign::unclassified(&report);
    if !bad.is_empty() {
        eprintln!(
            "faults: {} unclassified outcome(s): {bad:?} — failing",
            bad.len()
        );
        std::process::exit(1);
    }
    println!("faults: every outcome classified");

    // Same campaign, transistor-level cell: every transient (golden and
    // faulty) runs with MOSFET voltage limiting + device latency on, so
    // this sweep is the proof that the batched limited evaluator survives
    // fault-mutated netlists — shorted FETs, open ladders, bridged gates —
    // and still classifies every outcome instead of wedging the solver.
    println!(
        "\n== Fault-injection campaign — 3x3 transistor-level adder (MOS), limited evaluator =="
    );
    let mut mos_rec = MemoryRecorder::new();
    let mos = weighted_adder_campaign_observed(
        tech,
        AdderSpec::paper_3x3(),
        &weights,
        &duties,
        &config,
        &mut mos_rec,
    )
    .expect("the golden (fault-free) MOS adder must simulate");
    let loud: Vec<Vec<String>> = campaign::sorted_outcomes(&mos)
        .iter()
        .filter(|o| !matches!(o.class, FaultClass::Masked))
        .map(|o| {
            vec![
                o.label.clone(),
                o.class.tag().to_string(),
                o.vout.map_or("-".into(), |v| f(v, 3)),
                o.error_v.map_or("-".into(), |e| f(e, 3)),
                o.rescue_attempts.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Non-masked verdicts vs Eq. 2 ({} of {} faults, analytic {} V, golden {} V)",
                loud.len(),
                mos.outcomes.len(),
                f(mos.analytic_vout, 3),
                f(mos.golden_vout, 3),
            ),
            &["fault", "class", "Vout", "|err| V", "rescues"],
            &loud
        )
    );
    for tag in campaign::CLASS_TAGS {
        println!("  {tag}: {}", mos.count(tag));
    }
    println!(
        "  rescue ladder: {} rungs burned, {} faults classified in {} sweep points",
        mos.rescue_attempts(),
        mos.outcomes.len(),
        mos_rec.counter_value("sweep.points"),
    );
    if let Some(stats) = &mos.collapse {
        println!(
            "  static collapsing: {} faults -> {} classes, {} transients simulated ({} golden-equivalent)",
            stats.universe, stats.classes, stats.simulated, stats.golden
        );
    }
    if let Some(t) = &mos.triage {
        println!(
            "  static triage: {} masked + {} failed of {} certified without a transient ({:.1}%), {} simulated",
            t.masked,
            t.failed,
            t.universe,
            t.triage_ratio() * 100.0,
            t.simulated
        );
    }
    let mos_json = campaign::to_json(&mos, &config, fast);
    let mos_path = results_dir().join(format!("FAULTS_mos_{quality}mssim.json"));
    match std::fs::write(&mos_path, &mos_json) {
        Ok(()) => println!("wrote {} ({} bytes)", mos_path.display(), mos_json.len()),
        Err(e) => eprintln!("  warning: could not write {}: {e}", mos_path.display()),
    }
    let mos_bad = campaign::unclassified(&mos);
    if !mos_bad.is_empty() {
        eprintln!(
            "faults: {} unclassified MOS outcome(s): {mos_bad:?} — failing",
            mos_bad.len()
        );
        std::process::exit(1);
    }
    println!("faults: every MOS outcome classified");
}

/// Renders one universe's `--triage-only` verdict table: per fault class
/// the static verdict, the guaranteed Vout enclosure and its width, and
/// the Krawczyk contraction factor β (certifiable iff β < 1).
fn triage_table(which: &str, report: &pwm_perceptron::faults::TriageReport) {
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.kind.to_string(),
                r.verdict.tag().to_string(),
                r.enclosure.map_or("-".into(), |(lo, hi)| {
                    format!("[{}, {}]", f(lo, 3), f(hi, 3))
                }),
                r.enclosure.map_or("-".into(), |(lo, hi)| f(hi - lo, 3)),
                r.beta.map_or("-".into(), |b| f(b, 3)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Static triage — {which} ({} faults, analytic {} V)",
                report.rows.len(),
                f(report.analytic_vout, 3),
            ),
            &[
                "fault",
                "kind",
                "static verdict",
                "enclosure V",
                "width V",
                "beta"
            ],
            &table
        )
    );
    println!(
        "  collapse: {} faults -> {} classes; triage: {} masked + {} failed certified ({:.1}%), {} still need transients",
        report.collapse.universe,
        report.collapse.classes,
        report.stats.masked,
        report.stats.failed,
        report.stats.triage_ratio() * 100.0,
        report.stats.simulated
    );
}

/// Load harness for the batched inference engine: serves deterministic
/// uniform and hot-set query streams through tiered
/// [`InferenceEngine`](pwm_perceptron::InferenceEngine) configurations,
/// prints latency/throughput/cache metrics, writes
/// `results/SERVE_mssim.json` and gates the acceptance thresholds (≥10×
/// naive circuit throughput, ≥90 % hot-set hit rate, zero classification
/// divergences, hot-set p99 within its ceiling) so CI can fail on
/// regressions.
fn serve(queries: Option<usize>, fast: bool) {
    use bench::serve as sv;

    let mut config = sv::ServeConfig::default();
    if fast {
        config.queries = 2_000;
    }
    if let Some(q) = queries {
        config.queries = q;
    }
    println!("\n== Serve — batched inference engine load harness ==");
    println!(
        "{} queries/stream, duty grid {} levels, hot set {} @ p={:.2}, seed {:#x}",
        config.queries, config.resolution, config.hot_set, config.hot_prob, config.seed
    );
    let report = sv::run(&config);

    let row = |s: &bench::serve::StreamReport| {
        vec![
            s.stream.to_string(),
            format!("{}", s.queries),
            f(s.p50_ns as f64 / 1e3, 1),
            f(s.p99_ns as f64 / 1e3, 1),
            f(s.qps, 0),
            f(s.hit_rate * 100.0, 1),
            format!(
                "{}/{}/{}",
                s.tier_analytic, s.tier_switch_level, s.tier_circuit
            ),
        ]
    };
    let table = vec![
        row(&report.uniform),
        row(&report.switch),
        row(&report.hotset),
    ];
    let header = [
        "stream",
        "queries",
        "p50 µs",
        "p99 µs",
        "qps",
        "hit %",
        "evals a/s/c",
    ];
    println!(
        "{}",
        render_table("Serve — per-stream metrics", &header, &table)
    );
    println!(
        "naive per-query circuit baseline: {:.1} qps — hot-set speedup {:.1}x, divergences {}",
        report.naive_qps, report.speedup_vs_naive, report.divergences
    );

    let path = results_dir().join("SERVE_mssim.json");
    let json = sv::to_json(&report, &config);
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {} ({} bytes)", path.display(), json.len()),
        Err(e) => eprintln!("  warning: could not write {}: {e}", path.display()),
    }

    let violations = report.violations();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("serve: {v} — failing");
        }
        std::process::exit(1);
    }
    println!("serve: all acceptance gates passed");
}

fn scaling(tech: &Technology) {
    let shapes = [
        (3usize, 3u32),
        (5, 3),
        (8, 3),
        (16, 3),
        (3, 5),
        (3, 8),
        (8, 8),
    ];
    let rows = ex::adder_scaling(tech, &shapes);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.inputs, r.bits),
                format!("{}", r.transistors),
                f(r.lsb_voltage * 1e3, 2),
                f(r.ripple * 1e3, 2),
                f(r.tau * 1e9, 1),
            ]
        })
        .collect();
    let header = ["k x n", "transistors", "LSB mV", "ripple mV", "tau ns"];
    println!(
        "{}",
        render_table("A9 — architecture scaling", &header, &table)
    );
    write_csv(&results_dir().join("scaling.csv"), &header, &table);
}

#[cfg(test)]
mod tests {
    use super::{check_flags, parse_queries};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<Option<usize>, String> {
        parse_queries(&strings(args))
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for args in [
            &["lint"][..],
            &["--fast", "faults", "--no-triage"][..],
            &["faults", "--no-collapse", "--triage-only"][..],
            &["serve", "--queries", "500"][..],
        ] {
            assert_eq!(check_flags(&strings(args)), Ok(()), "{args:?}");
        }
        for (args, flag) in [
            (&["--fsat", "lint"][..], "--fsat"),
            (
                &["--fast", "all", "--queries", "5", "--verbose"][..],
                "--verbose",
            ),
        ] {
            let message = check_flags(&strings(args)).unwrap_err();
            assert!(
                message.starts_with(&format!("unknown flag '{flag}'. known: [\"--fast\"")),
                "{args:?}: {message}"
            );
        }
    }

    #[test]
    fn queries_must_be_a_positive_integer() {
        assert_eq!(parse(&["serve", "--queries", "500"]), Ok(Some(500)));
        assert_eq!(parse(&["serve"]), Ok(None));
        for (args, got) in [
            (&["serve", "--queries", "0"][..], "0"),
            (&["serve", "--queries"][..], ""),
            (&["serve", "--queries", "many"][..], "many"),
        ] {
            assert_eq!(
                parse(args),
                Err(format!("--queries expects a positive integer, got '{got}'")),
                "{args:?}"
            );
        }
    }
}
