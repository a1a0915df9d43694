//! A minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build environment for this workspace is offline, so the real
//! proptest cannot be fetched from crates.io. This crate implements the
//! subset of its API that the workspace's property tests use — the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, `any::<T>()`,
//! numeric-range strategies, `prop::collection::vec`, `prop::option::of`
//! and `prop::sample::select` — on top of a small deterministic PRNG.
//!
//! Differences from the real crate:
//!
//! * no shrinking: a failing case reports its inputs but is not minimised;
//! * deterministic seeding: each test derives its seed from its name, so
//!   runs are bit-reproducible (set `PROPTEST_SEED` to explore);
//! * `PROPTEST_CASES` (default 96) controls the number of cases per test.
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic xoshiro256++ stream used to drive generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// A stream seeded from an arbitrary 64-bit value via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng { s: [next(), next(), next(), next()] }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }
}

/// A value generator. The real proptest `Strategy` also drives shrinking;
/// here it is generation only.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

/// A strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// An unconstrained strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}

impl_arbitrary_int!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    /// Finite values over a wide range of magnitudes and both signs (the
    /// real proptest also emits NaN/∞; the workspace tests that care pass
    /// them explicitly).
    fn arbitrary(rng: &mut TestRng) -> f64 {
        let magnitude = (rng.f64() * 600.0 - 300.0).exp2();
        let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
        match rng.below(16) {
            0 => 0.0,
            1 => f64::NAN,
            2 => sign * f64::INFINITY,
            _ => sign * magnitude,
        }
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> [u8; N] {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

/// String literals act as regex strategies, as in the real proptest.
/// Supported subset: literal characters, character classes
/// (`[a-z0-9_]`, ranges and singletons), and the quantifiers `{n}`,
/// `{m,n}`, `?`, `*` and `+` (unbounded repeats cap at 8).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let span = atom.max - atom.min;
            let reps = atom.min + rng.below(span as u64 + 1) as usize;
            for _ in 0..reps {
                let choice = &atom.chars[rng.below(atom.chars.len() as u64) as usize];
                out.push(*choice);
            }
        }
        out
    }
}

struct PatternAtom {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

fn parse_pattern(pattern: &str) -> Vec<PatternAtom> {
    let mut atoms = Vec::new();
    let mut it = pattern.chars().peekable();
    while let Some(c) = it.next() {
        let chars = match c {
            '[' => {
                let mut set = Vec::new();
                let mut prev: Option<char> = None;
                for member in it.by_ref() {
                    match member {
                        ']' => break,
                        '-' if prev.is_some() => {
                            // Range: complete it with the next char.
                            prev = Some('-');
                            continue;
                        }
                        ch => {
                            if prev == Some('-') {
                                let lo = *set.last().expect("range start");
                                for code in (lo as u32 + 1)..=(ch as u32) {
                                    if let Some(cc) = char::from_u32(code) {
                                        set.push(cc);
                                    }
                                }
                                prev = None;
                            } else {
                                set.push(ch);
                                prev = Some(ch);
                            }
                        }
                    }
                }
                assert!(!set.is_empty(), "empty character class in {pattern:?}");
                set
            }
            '\\' => vec![it.next().expect("escaped character")],
            ch => vec![ch],
        };
        let (min, max) = match it.peek() {
            Some('{') => {
                it.next();
                let spec: String = it.by_ref().take_while(|&ch| ch != '}').collect();
                match spec.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("bad repeat"),
                        n.trim().parse().expect("bad repeat"),
                    ),
                    None => {
                        let n: usize = spec.trim().parse().expect("bad repeat");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                it.next();
                (0, 1)
            }
            Some('*') => {
                it.next();
                (0, 8)
            }
            Some('+') => {
                it.next();
                (1, 8)
            }
            _ => (1, 1),
        };
        assert!(min <= max, "bad repeat bounds in {pattern:?}");
        atoms.push(PatternAtom { chars, min, max });
    }
    atoms
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )+};
}

impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        // Closed interval: occasionally emit the exact endpoints.
        match rng.below(64) {
            0 => lo,
            1 => hi,
            _ => lo + rng.f64() * (hi - lo),
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Collection, option and sampling strategies (`prop::collection::vec`
/// and friends).
pub mod prop {
    /// Strategies for collections of values.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// The length specification `vec` accepts: a fixed length or a
        /// half-open range.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty vec size range");
                SizeRange { lo: r.start, hi: r.end }
            }
        }

        /// The strategy returned by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// A vector whose length is drawn from `size` and whose elements
        /// are drawn from `element`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64;
                let len = self.size.lo + rng.below(span.max(1)) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Strategies for `Option<T>`.
    pub mod option {
        use super::super::{Strategy, TestRng};

        /// The strategy returned by [`of`].
        #[derive(Debug, Clone)]
        pub struct OptionStrategy<S> {
            inner: S,
        }

        /// `None` about a quarter of the time, `Some(inner)` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }

    /// Sampling from explicit value sets.
    pub mod sample {
        use super::super::{Strategy, TestRng};

        /// The strategy returned by [`select`].
        #[derive(Debug, Clone)]
        pub struct Select<T: Clone> {
            items: Vec<T>,
        }

        /// A uniformly random element of `items`.
        pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
            assert!(!items.is_empty(), "select from empty set");
            Select { items }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                self.items[rng.below(self.items.len() as u64) as usize].clone()
            }
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        Strategy,
    };
}

/// Number of cases each `proptest!` test runs (`PROPTEST_CASES`,
/// default 96).
pub fn case_count() -> usize {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
}

/// The deterministic base seed for a test (`PROPTEST_SEED` to override).
pub fn base_seed(test_name: &str) -> u64 {
    if let Ok(seed) = std::env::var("PROPTEST_SEED") {
        if let Ok(seed) = seed.parse() {
            return seed;
        }
    }
    // FNV-1a over the fully qualified test name.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Declares property tests: each `name in strategy` parameter is drawn
/// fresh for every case, and the body runs once per case.
#[macro_export]
macro_rules! proptest {
    ($(#[$meta:meta] fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            #[$meta]
            fn $name() {
                let cases = $crate::case_count();
                let seed =
                    $crate::base_seed(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cases {
                    let mut rng =
                        $crate::TestRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let run = |rng: &mut $crate::TestRng| {
                        $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                        $body
                    };
                    run(&mut rng);
                }
            }
        )+
    };
}

/// `assert!` that names the property-test context on failure.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` that names the property-test context on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` that names the property-test context on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::TestRng::seed_from_u64(7);
        let mut b = crate::TestRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(10u32..20), &mut rng);
            assert!((10..20).contains(&v));
            let f = Strategy::generate(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
            let g = Strategy::generate(&(0.0f64..=1.0), &mut rng);
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn vec_lengths_follow_size_range() {
        let mut rng = crate::TestRng::seed_from_u64(2);
        for _ in 0..200 {
            let v = Strategy::generate(&prop::collection::vec(any::<u8>(), 2usize..5), &mut rng);
            assert!((2..5).contains(&v.len()));
            let fixed = Strategy::generate(&prop::collection::vec(any::<u8>(), 3usize), &mut rng);
            assert_eq!(fixed.len(), 3);
        }
    }

    proptest! {
        #[test]
        fn macro_draws_values(x in 0u64..100, flip in any::<bool>()) {
            prop_assert!(x < 100);
            prop_assume!(flip);
            prop_assert!(flip);
        }
    }
}
