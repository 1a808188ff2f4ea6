//! Offline stand-in for the subset of the `proptest` crate API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the property
//! tests run against a minimal vendored harness: the [`proptest!`]
//! macro expands each property into a `#[test]` that draws the declared
//! number of deterministic pseudo-random cases (seeded from the test
//! name, so failures reproduce run to run) and executes the body.
//! There is no shrinking; a failing case panics with the drawn inputs
//! already interpolated by the assertion message.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strategies: types that can draw one value per test case.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of test-case values.
    pub trait Strategy {
        /// The value type drawn.
        type Value;
        /// Draws one value.
        fn pick(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    lo + rng.below((hi - lo) as u64 + 1) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn pick(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }
}

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Draws `true` or `false` with equal probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn pick(&self, rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }
}

/// Runner configuration and the per-test driver.
pub mod test_runner {
    /// Number of cases to draw per property.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// How many random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases: cases.max(1) }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic per-test random stream (SplitMix64 counter mode).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream from the property name so every run of the
        /// same test draws the same cases.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform integer in `[0, span)`.
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Drives one property: holds the case budget and the case stream.
    #[derive(Clone, Debug)]
    pub struct TestRunner {
        cases: u32,
        rng: TestRng,
    }

    impl TestRunner {
        /// Creates a runner for the named property.
        pub fn new(config: ProptestConfig, name: &str) -> Self {
            TestRunner { cases: config.cases, rng: TestRng::from_name(name) }
        }

        /// The number of cases to run.
        pub fn cases(&self) -> u32 {
            self.cases
        }

        /// The shared case stream.
        pub fn rng(&mut self) -> &mut TestRng {
            &mut self.rng
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declares property tests. Mirrors `proptest::proptest!` for the
/// supported subset: an optional `#![proptest_config(...)]` header and
/// `fn name(binding in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let mut runner =
                $crate::test_runner::TestRunner::new($cfg, stringify!($name));
            for _case in 0..runner.cases() {
                $(
                    let $arg =
                        $crate::strategy::Strategy::pick(&($strat), runner.rng());
                )*
                $body
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Asserts inside a property body (no shrinking; panics immediately).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            panic!("property assertion failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            panic!($($fmt)+);
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            panic!(
                "property assertion failed: {} != {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                left,
                right
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges honour their bounds.
        #[test]
        fn ranges_bounded(a in 3u32..9, b in 1u64..=4, c in 0usize..5, f in 0.5f64..0.75) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((1..=4).contains(&b));
            prop_assert!(c < 5);
            prop_assert!((0.5..0.75).contains(&f));
        }

        /// Booleans draw from the ANY strategy.
        #[test]
        fn bools_draw(flag in crate::bool::ANY) {
            prop_assert_eq!(flag as u8 <= 1, true);
        }
    }

    #[test]
    fn bool_any_draws_both_values() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut rng = TestRng::from_name("bools");
        let draws: Vec<bool> = (0..64).map(|_| crate::bool::ANY.pick(&mut rng)).collect();
        assert!(draws.contains(&true) && draws.contains(&false), "{draws:?}");
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut a = TestRng::from_name("alpha");
        let mut b = TestRng::from_name("alpha");
        let mut c = TestRng::from_name("beta");
        let strat = 0u64..1_000_000;
        let xs: Vec<u64> = (0..32).map(|_| strat.pick(&mut a)).collect();
        let ys: Vec<u64> = (0..32).map(|_| strat.pick(&mut b)).collect();
        let zs: Vec<u64> = (0..32).map(|_| strat.pick(&mut c)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
