//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment has no network access, so this crate replaces
//! proptest's shrinking engine with straightforward seeded sampling: the
//! [`proptest!`] macro expands each property into a `#[test]` that draws
//! every argument from its [`Strategy`] for `ProptestConfig::cases`
//! deterministic cases (seeded from the test name, so failures
//! reproduce). `prop_assert*` map to plain assertions — no shrinking,
//! but counterexamples stay reproducible via the fixed seed.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Runner configuration (only `cases` is interpreted).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run each property `cases` times.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic per-test generator: seeded from the property name.
pub fn test_rng(name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Value generators. `Range<integer>` and `Range<f64>` are strategies, as
/// is [`collection::vec`].
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

impl<T: Strategy> Strategy for &T {
    type Value = T::Value;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (**self).sample(rng)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, len_range)` — as in upstream proptest.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Expand properties into seeded `#[test]` functions.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal recursion for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_rng(stringify!($name));
            for _case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                // A closure so `prop_assume!` can skip the case via `return`.
                #[allow(clippy::redundant_closure_call)]
                (|| $body)();
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// `prop_assert!` — plain assertion (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `prop_assert_eq!` — plain equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `prop_assert_ne!` — plain inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// `prop_assume!` — skip the current case when the precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_hold(x in 3usize..9, f in 0.0f64..1.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn assume_skips(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }

        #[test]
        fn vec_strategy(v in crate::collection::vec(1usize..5, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (1..5).contains(x)));
        }
    }
}
