//! Digital weight vectors.
//!
//! In the hardware each weight is an `n`-bit unsigned integer whose bits
//! enable binary-scaled AND cells ([`pwmcell::WeightedAdder`]); weight 0
//! cells still load the output node. Negative weights are realised
//! differentially by the [`crate::DifferentialPerceptron`], which splits a
//! signed vector into a positive and a negative unsigned half.

use std::fmt;

use crate::error::CoreError;

const WIDTH_RANGE: &str = "weight width must be 1..=16 bits";

/// The hardware's weight widths: `1..=16` bits.
fn check_width(bits: u32) -> Result<(), CoreError> {
    if (1..=16).contains(&bits) {
        Ok(())
    } else {
        Err(CoreError::InvalidWeightWidth { bits })
    }
}

/// An unsigned integer weight vector with a fixed bit width.
///
/// # Examples
///
/// ```
/// use pwm_perceptron::WeightVector;
///
/// let w = WeightVector::new(vec![7, 2, 5], 3)?;
/// assert_eq!(w.max_weight(), 7);
/// assert_eq!(w.len(), 3);
/// # Ok::<(), pwm_perceptron::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightVector {
    weights: Vec<u32>,
    bits: u32,
}

impl WeightVector {
    /// Creates a weight vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWeightWidth`] if `bits` is outside
    /// `1..=16`, [`CoreError::InvalidWeight`] if any weight exceeds
    /// `2^bits − 1`, or [`CoreError::DimensionMismatch`] if `weights` is
    /// empty.
    pub fn new(weights: Vec<u32>, bits: u32) -> Result<Self, CoreError> {
        check_width(bits)?;
        if weights.is_empty() {
            return Err(CoreError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        let max = (1u32 << bits) - 1;
        for &w in &weights {
            if w > max {
                return Err(CoreError::InvalidWeight {
                    weight: w as i64,
                    bits,
                });
            }
        }
        Ok(WeightVector { weights, bits })
    }

    /// All-zero weights of the given dimension.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16`.
    pub fn zeros(len: usize, bits: u32) -> Self {
        Self::new(vec![0; len.max(1)], bits).expect(WIDTH_RANGE)
    }

    /// All-maximal weights of the given dimension (the paper's Table II
    /// row 1 style).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16`.
    pub fn maxed(len: usize, bits: u32) -> Self {
        let mut maxed = Self::zeros(len, bits);
        let max = maxed.max_weight();
        maxed.weights.fill(max);
        maxed
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the vector is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Bit width `n`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable weight, `2ⁿ − 1`.
    pub fn max_weight(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// The weights as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.weights
    }

    /// One weight.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> u32 {
        self.weights[index]
    }

    /// Replaces one weight, clamping into range.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_clamped(&mut self, index: usize, value: i64) {
        let clamped = value.clamp(0, self.max_weight() as i64) as u32;
        self.weights[index] = clamped;
    }

    /// Adjusts one weight by a signed step, saturating at the range ends.
    /// Returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn nudge(&mut self, index: usize, delta: i64) -> u32 {
        let new = (self.weights[index] as i64).saturating_add(delta);
        self.set_clamped(index, new);
        self.weights[index]
    }

    /// Iterates over the weights.
    pub fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.weights.iter()
    }

    /// Sum of all weights (useful for normalisation).
    pub fn total(&self) -> u64 {
        self.weights.iter().map(|&w| w as u64).sum()
    }
}

impl fmt::Display for WeightVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, w) in self.weights.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, "]:{}b", self.bits)
    }
}

impl<'a> IntoIterator for &'a WeightVector {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.weights.iter()
    }
}

/// A signed weight vector for the differential perceptron: each weight in
/// `−(2ⁿ−1) ..= 2ⁿ−1` is split into a positive and a negative unsigned
/// magnitude driving the two adder halves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedWeightVector {
    weights: Vec<i32>,
    bits: u32,
}

impl SignedWeightVector {
    /// Creates a signed vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWeightWidth`] if `bits` is outside
    /// `1..=16`, [`CoreError::InvalidWeight`] if any |weight| exceeds
    /// `2^bits − 1`, or [`CoreError::DimensionMismatch`] if `weights` is
    /// empty.
    pub fn new(weights: Vec<i32>, bits: u32) -> Result<Self, CoreError> {
        check_width(bits)?;
        if weights.is_empty() {
            return Err(CoreError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        let max = (1u32 << bits) - 1;
        for &w in &weights {
            if w.unsigned_abs() > max {
                return Err(CoreError::InvalidWeight {
                    weight: w as i64,
                    bits,
                });
            }
        }
        Ok(SignedWeightVector { weights, bits })
    }

    /// All-zero signed weights.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16`.
    pub fn zeros(len: usize, bits: u32) -> Self {
        Self::new(vec![0; len.max(1)], bits).expect(WIDTH_RANGE)
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Bit width of each magnitude.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The signed weights.
    pub fn as_slice(&self) -> &[i32] {
        &self.weights
    }

    /// Adjusts one weight by a signed step, saturating at ±(2ⁿ−1).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn nudge(&mut self, index: usize, delta: i32) {
        let max = (1i32 << self.bits) - 1;
        self.weights[index] = self.weights[index].saturating_add(delta).clamp(-max, max);
    }

    /// Splits into the positive and negative unsigned halves that drive
    /// the two adders of a differential perceptron.
    pub fn split(&self) -> (WeightVector, WeightVector) {
        let pos: Vec<u32> = self.weights.iter().map(|&w| w.max(0) as u32).collect();
        let neg: Vec<u32> = self.weights.iter().map(|&w| (-w).max(0) as u32).collect();
        (
            WeightVector::new(pos, self.bits).expect("split halves are in range"),
            WeightVector::new(neg, self.bits).expect("split halves are in range"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        let w = WeightVector::new(vec![0, 3, 7], 3).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.bits(), 3);
        assert_eq!(w.max_weight(), 7);
        assert_eq!(w.get(1), 3);
        assert_eq!(w.total(), 10);
        assert!(WeightVector::new(vec![8], 3).is_err());
        assert!(WeightVector::new(vec![], 3).is_err());
    }

    #[test]
    fn zeros_and_maxed() {
        assert_eq!(WeightVector::zeros(3, 3).as_slice(), &[0, 0, 0]);
        assert_eq!(WeightVector::maxed(2, 3).as_slice(), &[7, 7]);
    }

    #[test]
    fn nudge_saturates() {
        let mut w = WeightVector::new(vec![6], 3).unwrap();
        assert_eq!(w.nudge(0, 5), 7);
        assert_eq!(w.nudge(0, -20), 0);
        assert_eq!(w.nudge(0, 3), 3);
        // Steps at the integer limits saturate instead of overflowing.
        let mut w = WeightVector::new(vec![6], 3).unwrap();
        assert_eq!(w.nudge(0, i64::MAX), 7);
        assert_eq!(w.nudge(0, i64::MIN), 0);
        for (start, delta, end) in [
            (6, i32::MAX, 7),
            (6, i32::MIN, -7),
            (-6, i32::MAX, 7),
            (-6, i32::MIN, -7),
        ] {
            let mut s = SignedWeightVector::new(vec![start], 3).unwrap();
            s.nudge(0, delta);
            assert_eq!(s.as_slice(), &[end], "{start} + {delta}");
        }
    }

    #[test]
    fn widths_outside_1_to_16_are_errors() {
        for bits in [0, 17, u32::MAX] {
            let width = CoreError::InvalidWeightWidth { bits };
            assert_eq!(WeightVector::new(vec![1], bits), Err(width.clone()));
            assert_eq!(SignedWeightVector::new(vec![1], bits), Err(width));
        }
        assert_eq!(WeightVector::maxed(1, 16).as_slice(), &[65_535]);
        assert!(SignedWeightVector::new(vec![-65_535], 16).is_ok());
    }

    #[test]
    #[should_panic(expected = "weight width must be 1..=16 bits")]
    fn maxed_panics_outside_1_to_16_bits() {
        let _ = WeightVector::maxed(2, 0);
    }

    #[test]
    fn display_format() {
        let w = WeightVector::new(vec![1, 2], 3).unwrap();
        assert_eq!(w.to_string(), "[1, 2]:3b");
    }

    #[test]
    fn iteration() {
        let w = WeightVector::new(vec![1, 2, 3], 3).unwrap();
        let sum: u32 = w.iter().sum();
        assert_eq!(sum, 6);
        let sum2: u32 = (&w).into_iter().sum();
        assert_eq!(sum2, 6);
    }

    #[test]
    fn signed_split() {
        let s = SignedWeightVector::new(vec![3, -5, 0], 3).unwrap();
        let (p, n) = s.split();
        assert_eq!(p.as_slice(), &[3, 0, 0]);
        assert_eq!(n.as_slice(), &[0, 5, 0]);
    }

    #[test]
    fn signed_validation_and_nudge() {
        assert!(SignedWeightVector::new(vec![-8], 3).is_err());
        let mut s = SignedWeightVector::new(vec![6], 3).unwrap();
        s.nudge(0, 5);
        assert_eq!(s.as_slice(), &[7]);
        s.nudge(0, -100);
        assert_eq!(s.as_slice(), &[-7]);
    }

    #[test]
    fn extreme_signed_weights_are_rejected_not_wrapped() {
        // |i32::MIN| does not fit an i32, so `abs` would wrap (release)
        // or panic (debug) instead of reporting the weight.
        for w in [i32::MIN, i32::MIN + 1, i32::MAX] {
            assert_eq!(
                SignedWeightVector::new(vec![0, w], 3),
                Err(CoreError::InvalidWeight {
                    weight: i64::from(w),
                    bits: 3
                })
            );
        }
    }
}
