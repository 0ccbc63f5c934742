//! Offline stand-in for `proptest`, covering the subset this workspace
//! uses: the [`strategy::Strategy`] trait (ranges, tuples, `prop_map`,
//! `prop_recursive`), `prop::collection::vec`, `prop::option::of`,
//! `Just`, `prop_oneof!`, and the `proptest!` test macro with
//! `prop_assert!`/`prop_assert_eq!`.
//!
//! Cases are generated from a fixed-seed deterministic RNG, so failures
//! reproduce exactly. Unlike the real crate there is no shrinking: a
//! failing case reports the case number and the assertion message.

pub mod test_runner {
    //! Test-loop configuration, RNG and failure type.

    use std::fmt;

    /// Per-`proptest!`-block configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each test runs.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property (carries the assertion message).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Build a failure from a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic generator driving case generation (xorshift64*).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeded construction.
        pub fn seeded(seed: u64) -> Self {
            let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            TestRng { state: (z ^ (z >> 31)) | 1 }
        }

        /// Next 64 random bits.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        /// Uniform draw below `n` (n > 0).
        #[inline]
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }

        /// Uniform float in `[0, 1)`.
        #[inline]
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use std::rc::Rc;

    /// Something that can generate random values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Build a recursive strategy: `f` receives the strategy for the
        /// previous depth level and returns the next level (typically a
        /// `prop_oneof!` mixing leaves and branches). `depth` bounds the
        /// nesting; the size hints are accepted for API compatibility.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut cur = self.boxed();
            for _ in 0..depth {
                cur = f(cur).boxed();
            }
            cur
        }

        /// Type-erase the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }
    }

    /// A type-erased, cheaply cloneable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always generates a clone of the same value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among type-erased alternatives (`prop_oneof!`).
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        /// Build from already-boxed alternatives.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union(self.0.clone())
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].generate(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as u128).wrapping_sub(self.start as u128);
                    self.start.wrapping_add((rng.next_u64() as u128 % width) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (s, e) = (*self.start(), *self.end());
                    assert!(s <= e, "empty range strategy");
                    let width = (e as u128) - (s as u128) + 1;
                    s.wrapping_add((rng.next_u64() as u128 % width) as $t)
                }
            }
        )*};
    }
    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() as f32 * (self.end - self.start)
        }
    }

    impl Strategy for bool {
        type Value = bool;
        fn generate(&self, _rng: &mut TestRng) -> bool {
            *self
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident),+)),+) => {$(
            #[allow(non_snake_case)]
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($n,)+) = self;
                    ($($n.generate(rng),)+)
                }
            }
        )+};
    }
    tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A `Vec` of `elem`-generated values with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// See [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // ~1 in 5 None, matching proptest's Some-biased default.
            if rng.below(5) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    /// `None` sometimes, `Some(inner)` usually.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod prelude {
    //! Everything a `proptest!` test needs, including the `prop` alias.

    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assert a condition inside `proptest!`, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}", a, b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}: {:?} != {:?}", format!($($fmt)+), a, b),
            ));
        }
    }};
}

/// Assert inequality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} == {:?}", a, b),
            ));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...)` body runs
/// for `cases` deterministic random inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( cfg = $cfg:expr; ) => {};
    (
        cfg = $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        #[test]
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::seeded(0xb10b_5eed);
            for case in 0..cfg.cases {
                $(
                    let $arg =
                        $crate::strategy::Strategy::generate(&($strat), &mut rng);
                )*
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("proptest case #{case} failed: {e}");
                }
            }
        }
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_collections(
            n in 3u64..9,
            xs in prop::collection::vec((0usize..4, 1u64..3), 1..6),
            opt in prop::option::of(1u32..5),
            pick in prop_oneof![Just(1u8), Just(2u8), 5u8..7],
        ) {
            prop_assert!((3..9).contains(&n), "n = {} out of range", n);
            prop_assert!(!xs.is_empty() && xs.len() < 6);
            for (a, b) in &xs {
                prop_assert!(*a < 4 && (1..3).contains(b));
            }
            if let Some(v) = opt {
                prop_assert!((1..5).contains(&v));
            }
            prop_assert!(pick == 1 || pick == 2 || (5..7).contains(&pick));
        }

        #[test]
        fn map_and_recursive(v in (1u64..4).prop_map(|x| x * 10)) {
            prop_assert_eq!(v % 10, 0);
            prop_assert!(v >= 10 && v < 40);
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Tree {
        Leaf(u8),
        Node(Box<Tree>, Box<Tree>),
    }

    fn depth(t: &Tree) -> u32 {
        match t {
            Tree::Leaf(_) => 0,
            Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn recursion_is_depth_bounded(
            t in (0u8..10).prop_map(Tree::Leaf).prop_recursive(3, 8, 2, |inner| {
                prop_oneof![
                    inner.clone(),
                    (inner.clone(), inner)
                        .prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b))),
                ]
            })
        ) {
            prop_assert!(depth(&t) <= 3, "depth {} exceeds bound", depth(&t));
        }
    }
}
