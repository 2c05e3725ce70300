//! Error type of the perceptron layer.

use std::fmt;

/// Errors produced by the perceptron APIs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A duty cycle was outside `0.0..=1.0`.
    InvalidDuty {
        /// The offending value.
        value: f64,
    },
    /// A weight exceeded its bit width.
    InvalidWeight {
        /// The offending weight.
        weight: i64,
        /// The configured width.
        bits: u32,
    },
    /// A weight width was outside `1..=16` bits.
    InvalidWeightWidth {
        /// The offending width.
        bits: u32,
    },
    /// Input dimension did not match the perceptron's weight count.
    DimensionMismatch {
        /// Dimension the perceptron expects.
        expected: usize,
        /// Dimension that was provided.
        got: usize,
    },
    /// A dataset was empty or otherwise unusable for training.
    EmptyDataset,
    /// The underlying circuit simulation failed.
    Simulation(mssim::Error),
    /// An internal invariant of the serving stack was violated — a bug,
    /// reported as a structured error instead of a panic so one bad query
    /// cannot take down a serving process.
    Internal {
        /// Which invariant broke.
        reason: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidDuty { value } => {
                write!(f, "duty cycle {value} outside 0..=1")
            }
            CoreError::InvalidWeight { weight, bits } => {
                write!(f, "weight {weight} does not fit in {bits} bits")
            }
            CoreError::InvalidWeightWidth { bits } => {
                write!(f, "weight width {bits} bits outside 1..=16")
            }
            CoreError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            CoreError::EmptyDataset => write!(f, "dataset has no samples"),
            CoreError::Simulation(e) => write!(f, "simulation failed: {e}"),
            CoreError::Internal { reason } => {
                write!(f, "internal serving invariant violated: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mssim::Error> for CoreError {
    fn from(e: mssim::Error) -> Self {
        CoreError::Simulation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = CoreError::InvalidDuty { value: 1.5 };
        assert!(e.to_string().contains("1.5"));
        assert!(e.source().is_none());

        let e = CoreError::from(mssim::Error::SingularMatrix { row: 1 });
        assert!(e.to_string().contains("simulation failed"));
        assert!(e.source().is_some());
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
