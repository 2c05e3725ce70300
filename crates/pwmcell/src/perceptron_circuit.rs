//! The complete Fig. 1 perceptron, closed at transistor level.
//!
//! The paper validates the weighted adder and argues the rest of Fig. 1
//! (reference + comparator) by construction. This module actually builds
//! it: the Fig. 3 adder drives one input of a [`DiffComparator`]; the
//! other input comes from a **resistive divider off the supply rail** —
//! the ratiometric reference that makes the decision power-elastic.
//! Total: 54 (adder) + 6 (comparator) = 60 transistors plus passives for
//! a complete 3×3 classifier.

use mssim::prelude::*;

use crate::adder::{AdderSpec, WeightedAdder};
use crate::comparator::DiffComparator;
use crate::tech::Technology;
use crate::testbench::{measure_periodic, SimQuality};

/// Handles to a complete perceptron circuit.
#[derive(Debug, Clone)]
pub struct PerceptronCircuit {
    /// The weighted adder.
    pub adder: WeightedAdder,
    /// The decision comparator.
    pub comparator: DiffComparator,
    /// The divider-derived reference node.
    pub reference: NodeId,
    /// The digital decision output.
    pub output: NodeId,
}

impl PerceptronCircuit {
    /// Instantiates adder + divider reference + comparator.
    ///
    /// `ref_fraction` sets the reference to `ref_fraction · Vdd` via a
    /// resistive divider (total 200 kΩ so it loads the supply, not the
    /// adder). For comparator common-mode validity keep it within
    /// `0.3..=0.65`.
    ///
    /// # Panics
    ///
    /// Panics if `ref_fraction` is outside `0.3..=0.65`, or on the usual
    /// name/weight validation of [`WeightedAdder::build`].
    pub fn build(
        circuit: &mut Circuit,
        tech: &Technology,
        prefix: &str,
        vdd: NodeId,
        weights: &[u32],
        spec: AdderSpec,
        ref_fraction: f64,
    ) -> Self {
        assert!(
            (0.3..=0.65).contains(&ref_fraction),
            "reference fraction must stay in the comparator's common-mode range"
        );
        let adder =
            WeightedAdder::build(circuit, tech, &format!("{prefix}_add"), vdd, weights, spec);
        let reference = circuit.node(&format!("{prefix}_ref"));
        let r_total = 200e3;
        circuit.resistor(
            &format!("{prefix}_Rrt"),
            vdd,
            reference,
            r_total * (1.0 - ref_fraction),
        );
        circuit.resistor(
            &format!("{prefix}_Rrb"),
            reference,
            Circuit::GND,
            r_total * ref_fraction,
        );
        // Light decoupling only: the comparator input is a MOS gate (no
        // kickback), and a heavy capacitor would make the reference the
        // slowest node in the circuit (τ_ref = 50 kΩ·C).
        circuit.capacitor(&format!("{prefix}_Cref"), reference, Circuit::GND, 100e-15);
        let comparator = DiffComparator::build(
            circuit,
            tech,
            &format!("{prefix}_cmp"),
            adder.output,
            reference,
            vdd,
        );
        let output = comparator.output;
        PerceptronCircuit {
            adder,
            comparator,
            reference,
            output,
        }
    }

    /// Total transistor count (adder + comparator).
    pub fn transistor_count(&self) -> usize {
        self.adder.transistor_count() + DiffComparator::TRANSISTORS
    }
}

/// End-to-end transistor-level classification harness.
#[derive(Debug, Clone)]
pub struct PerceptronTestbench {
    tech: Technology,
    spec: AdderSpec,
    ref_fraction: f64,
}

impl PerceptronTestbench {
    /// Harness for the paper's 3×3 perceptron with the given ratiometric
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if `ref_fraction` is outside `0.3..=0.65`.
    pub fn new(tech: &Technology, spec: AdderSpec, ref_fraction: f64) -> Self {
        assert!(
            (0.3..=0.65).contains(&ref_fraction),
            "reference fraction must stay in the comparator's common-mode range"
        );
        PerceptronTestbench {
            tech: tech.clone(),
            spec,
            ref_fraction,
        }
    }

    /// Transistor count of the circuit under test.
    pub fn transistor_count(&self) -> usize {
        self.spec.transistor_count() + DiffComparator::TRANSISTORS
    }

    /// Builds the full circuit, applies the PWM inputs, runs a transient
    /// at supply `vdd`, and reads the digital decision (comparator output
    /// averaged over the final `quality.measure_periods` periods,
    /// thresholded at Vdd/2).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `duties`/`weights` lengths do not match the spec.
    pub fn classify(
        &self,
        duties: &[f64],
        weights: &[u32],
        vdd: Volts,
        quality: &SimQuality,
    ) -> Result<bool, Error> {
        assert_eq!(duties.len(), self.spec.inputs, "one duty per input");
        let frequency = self.tech.frequency;
        let period = frequency.period().value();

        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let vdd_src = ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd.value()));
        let dut = PerceptronCircuit::build(
            &mut ckt,
            &self.tech,
            "dut",
            vdd_node,
            weights,
            self.spec,
            self.ref_fraction,
        );
        for (i, &d) in duties.iter().enumerate() {
            ckt.vsource(
                &format!("VIN{i}"),
                dut.adder.inputs[i],
                Circuit::GND,
                Waveform::pwm_with_edges(
                    vdd.value(),
                    frequency.value(),
                    d,
                    self.tech.edge_fraction(frequency),
                ),
            );
        }

        // Settle the adder output (the slowest node) then sample, in exact
        // mode: limited mode stalls at the first step.
        let ron = 0.5 * (self.tech.ron_n().value() + self.tech.ron_p().value());
        let units = self.spec.inputs as f64 * self.spec.max_weight() as f64;
        let tau = (self.tech.rout.value() + ron) / units * self.tech.cout_adder.value();
        let plan = quality.plan(period, tau);
        let v_out = measure_periodic(&ckt, dut.output, vdd_src, &plan, None, None)?
            .measurement?
            .vout
            .value();
        Ok(v_out > 0.5 * vdd.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;

    /// Fast technology for debug-speed tests.
    fn quick_tech() -> Technology {
        let mut t = Technology::umc65_like();
        t.cout_adder = mssim::units::Farads(500e-15);
        t.frequency = mssim::units::Hertz(50e6);
        t
    }

    #[test]
    fn full_perceptron_decides_correctly() {
        let tech = quick_tech();
        let tb = PerceptronTestbench::new(&tech, AdderSpec::paper_3x3(), 0.5);
        assert_eq!(tb.transistor_count(), 62);
        let q = SimQuality::fast();
        // Strong case: Eq.2 gives 2.0 V ≫ 1.25 V reference.
        let high = tb
            .classify(&[0.7, 0.8, 0.9], &[7, 7, 7], Volts(2.5), &q)
            .unwrap();
        assert!(high, "2.0 V > 1.25 V must fire");
        // Weak case: 0.42 V ≪ 1.25 V.
        let low = tb
            .classify(&[0.5, 0.5, 0.5], &[1, 2, 4], Volts(2.5), &q)
            .unwrap();
        assert!(!low, "0.42 V < 1.25 V must not fire");
    }

    #[test]
    fn full_perceptron_is_power_elastic() {
        // Same (ratiometric) decision at 2.5 V and 1.8 V: both the adder
        // output and the divider reference scale with the rail.
        let tech = quick_tech();
        let tb = PerceptronTestbench::new(&tech, AdderSpec::paper_3x3(), 0.5);
        let q = SimQuality::fast();
        for vdd in [2.5, 1.8] {
            // Eq.2 ratio = 0.167 ≪ 0.5 → must NOT fire. (A ratio within
            // a few tens of mV of the reference is legitimately inside
            // the comparator's offset budget, so test decisive rows.)
            let high = tb
                .classify(&[0.5, 0.5, 0.5], &[1, 2, 4], Volts(vdd), &q)
                .unwrap();
            assert!(!high, "ratio 0.167 < 0.5 at vdd={vdd}");
            let fire = tb
                .classify(&[0.95, 0.9, 0.8], &[7, 6, 6], Volts(vdd), &q)
                .unwrap();
            // Ratio 0.80 > 0.5 → fires.
            assert!(fire, "ratio 0.80 > 0.5 at vdd={vdd}");
        }
    }

    #[test]
    fn decision_follows_the_analytic_boundary() {
        // Sweep one duty across the boundary; the transistor-level
        // decision must flip where Eq. 2 crosses the reference (within
        // the comparator offset + ripple budget of one LSB).
        let tech = quick_tech();
        let tb = PerceptronTestbench::new(&tech, AdderSpec::paper_3x3(), 0.5);
        let q = SimQuality::fast();
        let weights = [7u32, 7, 7];
        // With d2 = d3 = 0.5: Eq.2 ratio = (d1 + 1.0)/3 → crosses 0.5 at
        // d1 = 0.5. Stay one LSB away from the boundary on both sides.
        let low = tb
            .classify(&[0.30, 0.5, 0.5], &weights, Volts(2.5), &q)
            .unwrap();
        let high = tb
            .classify(&[0.70, 0.5, 0.5], &weights, Volts(2.5), &q)
            .unwrap();
        assert!(!low && high, "boundary must lie between d1=0.30 and 0.70");
        // Cross-check the boundary location analytically.
        let v_low = analytic::adder_vout(2.5, &[0.30, 0.5, 0.5], &weights, 3);
        let v_high = analytic::adder_vout(2.5, &[0.70, 0.5, 0.5], &weights, 3);
        assert!(v_low < 1.25 && v_high > 1.25);
    }

    #[test]
    #[should_panic(expected = "common-mode range")]
    fn extreme_reference_is_rejected() {
        let tech = quick_tech();
        let _ = PerceptronTestbench::new(&tech, AdderSpec::paper_3x3(), 0.9);
    }
}
