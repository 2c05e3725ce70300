//! Circuit analyses: DC operating point, DC sweep, AC, noise, transient.
//!
//! The analyses share the modified-nodal-analysis assembly and damped
//! Newton–Raphson kernel (crate-private `mna` module). They are run
//! through [`Session`](crate::Session), the unified entry point that owns
//! lint pre-flight, plan compilation, solver selection and observer
//! registration; [`Transient::run`] is a deprecated thin wrapper over it.
//! Every result type implements the common [`Solution`] probing trait.

pub(crate) mod mna;
pub(crate) mod mos_batch;
pub(crate) mod plan;

pub(crate) mod ac;
pub(crate) mod dcop;
pub(crate) mod dcsweep;
pub(crate) mod noise;
mod solution;
pub(crate) mod transient;

pub use ac::AcResult;
pub use dcop::{dc_operating_point_reference, DcSolution};
pub use dcsweep::{dc_sweep_reference, DcSweepResult};
pub use noise::NoiseResult;
pub use solution::Solution;
pub use transient::{
    IntegrationMethod, RescueIncident, RescuePolicy, RescueReport, Transient, TransientOutcome,
    TransientResult,
};
