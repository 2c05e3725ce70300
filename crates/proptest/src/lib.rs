//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this path crate
//! re-implements the subset of proptest this workspace uses: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`, multiple `#[test]`
//! functions, pattern arguments and `arg in strategy` bindings), range and
//! tuple strategies, [`collection::vec`], [`any`], `prop_assert!` and
//! `prop_assert_eq!`.
//!
//! Differences from upstream, by design:
//!
//! * cases are generated from a seed derived from the test name, so runs
//!   are fully deterministic — there is no persistence file and
//!   `*.proptest-regressions` files are ignored;
//! * failing cases are **not** shrunk; the failure message prints the
//!   exact inputs of the failing case instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Test-runner plumbing: configuration, RNG and failure type.
pub mod test_runner {
    use super::*;

    /// Number of random cases each property runs (overridable per block
    /// with `#![proptest_config(ProptestConfig::with_cases(n))]`).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Cases to execute per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic per-test RNG (seeded from the test's name).
    #[derive(Debug, Clone)]
    pub struct TestRng(pub(crate) StdRng);

    impl TestRng {
        /// Builds the RNG for a named test: an FNV-1a hash of the name
        /// seeds the generator, so every run of the suite replays the
        /// same cases.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }
    }

    /// A failed property case (produced by `prop_assert!` and friends).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }
}

use test_runner::TestRng;

/// A generator of random values for one property argument.
///
/// Mirrors `proptest::strategy::Strategy` closely enough for
/// `impl Strategy<Value = T>` return types to work.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value: fmt::Debug;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// A strategy producing one fixed value (mirrors `proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// Types with a canonical strategy over their full domain (see [`any`]).
pub trait Arbitrary: Sized + fmt::Debug {
    /// Strategy type returned by [`any`].
    type Strategy: Strategy<Value = Self>;
    /// The canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Canonical full-domain strategy for `T` (`any::<bool>()`, ...).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-domain strategy used by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.0.gen()
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyStrategy<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyStrategy(std::marker::PhantomData)
            }
        }
    )*};
}

arbitrary_via_standard!(bool, u32, u64, f64);

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::*;

    /// A length specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "vec size range must be non-empty");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "vec size range must be non-empty");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn uniformly from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.0.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Namespace alias matching `proptest::prelude::prop`.
pub mod prop {
    pub use crate::collection;
}

/// Everything a test module needs, matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop, prop_assert, prop_assert_eq, proptest, Just, Strategy};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            format!($($fmt)+),
            l,
            r
        );
    }};
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)`
/// inside the block runs `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                let mut inputs = String::new();
                $(
                    let value = $crate::Strategy::new_value(&$strat, &mut rng);
                    inputs.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), value
                    ));
                    let $arg = value;
                )+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property '{}' failed on case {}/{}:\n{}\ninputs:\n{}",
                        stringify!($name), case + 1, config.cases, e, inputs
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Range strategies respect their bounds.
        #[test]
        fn ranges_in_bounds(x in 3u32..10, y in -2.0f64..=2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..=2.0).contains(&y));
        }

        /// Vec strategies respect the size spec, fixed and ranged.
        #[test]
        fn vec_sizes(
            v in prop::collection::vec(0u64..5, 3),
            w in prop::collection::vec(any::<bool>(), 1..4),
        ) {
            prop_assert_eq!(v.len(), 3);
            prop_assert!((1..4).contains(&w.len()));
        }

        /// Tuple strategies and patterns destructure.
        #[test]
        fn tuples_destructure((a, b) in (0u32..4, 0u32..4)) {
            prop_assert!(a < 4 && b < 4);
        }
    }

    // No `#[test]` meta: expands to a plain fn that `failure_reports_inputs`
    // drives through catch_unwind to inspect the failure message.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        fn always_fails(x in 0u32..2) {
            prop_assert!(x > 100, "x was {}", x);
        }
    }

    #[test]
    fn failure_reports_inputs() {
        let result = std::panic::catch_unwind(always_fails);
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("x ="), "{msg}");
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::for_test("t");
        let mut b = crate::test_runner::TestRng::for_test("t");
        let s = 0.0f64..1.0;
        for _ in 0..16 {
            assert_eq!(s.new_value(&mut a), s.new_value(&mut b));
        }
    }
}
