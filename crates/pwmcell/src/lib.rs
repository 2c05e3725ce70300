//! # pwmcell — the paper's mixed-signal cell library
//!
//! Transistor-level building blocks of the PWM perceptron from
//! *"A Pulse Width Modulation based Power-elastic and Robust Mixed-signal
//! Perceptron Design"* (DATE 2019), built on the [`mssim`] analog
//! simulator:
//!
//! * [`Technology`] — the paper's Table I parameters (UMC-65-like level-1
//!   devices, 2.5 V supply, 320 nm / 865 nm × 1.2 µm transistors),
//! * [`Inverter`] — the Fig. 2 transcoding inverter (PWM duty cycle →
//!   analog voltage) with output resistor and capacitor,
//! * [`gates`] — 4-transistor NAND and 2-transistor inverter composed into
//!   the 6-transistor AND cell,
//! * [`WeightedAdder`] — the Fig. 3 k×n weighted adder with binary-scaled
//!   cells (×1/×2/×4 widths, ÷1/÷2/÷4 output resistors),
//! * [`analytic`] — the paper's Eq. 2 ideal output model and first-order
//!   RC estimates,
//! * [`PwmNode`] — a fast switch-level model with an exact
//!   periodic-steady-state solver, used where thousands of evaluations are
//!   needed (training loops, Monte Carlo),
//! * [`InverterTestbench`] / [`AdderTestbench`] — ready-made measurement
//!   harnesses that reproduce the paper's experiments, all measuring
//!   through [`measure_periodic`], the one PWM-averaged transient.
//!
//! ## Example: transcode a 30 % duty cycle
//!
//! ```
//! use pwmcell::{InverterTestbench, MeasureSpec, SimQuality, Technology};
//!
//! # fn main() -> Result<(), mssim::Error> {
//! let tech = Technology::umc65_like();
//! let tb = InverterTestbench::new(&tech);
//! let m = tb.measure(&MeasureSpec::duty(0.3), &SimQuality::fast())?;
//! // The inverter output is inversely proportional to the duty cycle:
//! // Vout ≈ Vdd · (1 − duty) = 1.75 V.
//! assert!((m.vout.value() - 1.75).abs() < 0.15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod analytic;
pub mod comparator;
pub mod faults;
pub mod gates;
pub mod inverter;
pub mod modulator;
pub mod perceptron_circuit;
pub mod switch_model;
pub mod tech;
pub mod testbench;

pub use adder::{AdderSpec, SwitchAdder, WeightedAdder};
pub use comparator::DiffComparator;
pub use inverter::Inverter;
pub use modulator::{ModulatorTestbench, PwmModulator};
pub use perceptron_circuit::{PerceptronCircuit, PerceptronTestbench};
pub use switch_model::{PwmNode, SwitchCell};
pub use tech::Technology;
pub use testbench::{
    measure_periodic, AdderBatchBench, AdderMeasurement, AdderTestbench, InverterMeasurement,
    InverterTestbench, MeasureSpec, PeriodicMeasurement, PeriodicPlan, PeriodicRun,
    RescuedAdderMeasurement, SimQuality,
};
