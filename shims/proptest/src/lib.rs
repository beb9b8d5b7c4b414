//! Local stand-in for `proptest`: randomized property testing with the same
//! macro/strategy surface this workspace uses. The environment has no
//! crates.io access, so the workspace carries its own generator-based
//! implementation. It generates random inputs per case (no shrinking — a
//! failing case prints the seed so it can be replayed by rerunning the
//! test binary, which reuses the per-test deterministic seed).

use std::sync::Arc;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving the strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e3779b97f4a7c15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Builds the deterministic per-test generator used by [`proptest!`].
pub fn test_rng(test_name: &str) -> TestRng {
    // FNV-1a over the test name: stable across runs, distinct across tests.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    TestRng::new(h)
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Runner configuration (subset of the real `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A generator of random values of one type.
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

    /// Filters generated values, retrying until `f` accepts one (bounded).
    fn prop_filter<F>(self, _why: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f }
    }

    /// Recursive strategies: `f` receives the strategy for the previous
    /// depth level and returns the strategy for one level deeper. Depth is
    /// bounded by `depth`; the leaf strategy terminates the recursion.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            // Each level mixes the leaf back in so generated trees stay small.
            level = Union {
                choices: vec![(1, leaf.clone()), (2, f(level).boxed())],
            }
            .boxed();
        }
        level
    }

    /// Type-erases the strategy behind a cheaply clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy {
            inner: Arc::new(self),
        }
    }
}

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// Type-erased, clonable strategy handle.
pub struct BoxedStrategy<T> {
    inner: Arc<dyn DynStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate_dyn(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates in a row");
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice between strategies of one value type (`prop_oneof!`).
pub struct Union<T> {
    choices: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or all weights are zero.
    pub fn new(choices: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one choice");
        assert!(
            choices.iter().any(|(w, _)| *w > 0),
            "prop_oneof! needs a positive weight"
        );
        Union { choices }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.choices.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.next_u64() % total;
        for (w, s) in &self.choices {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights exhausted")
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------------

/// Strategy for the full domain of a type (`any::<T>()`).
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Full-domain strategy constructor.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical full-domain generator.
pub trait Arbitrary: Sized {
    /// Draws one value from the full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite values only, spanning a wide magnitude range.
        let mantissa = rng.unit_f64() * 2.0 - 1.0;
        let exp = rng.below(61) as i32 - 30;
        mantissa * (2f64).powi(exp)
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::arbitrary(rng) as f32
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Mostly ASCII with a sprinkle of wider code points.
        if rng.below(4) == 0 {
            char::from_u32(0x80 + rng.below(0xD7FF - 0x80) as u32).unwrap_or('\u{fffd}')
        } else {
            (0x20u8 + rng.below(0x5f) as u8) as char
        }
    }
}

impl Arbitrary for String {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let len = rng.below(16);
        (0..len).map(|_| char::arbitrary(rng)).collect()
    }
}

macro_rules! impl_strategy_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % width;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let width = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % width;
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_strategy_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_range_float {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}

impl_strategy_range_float!(f32, f64);

macro_rules! impl_strategy_tuple {
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

impl_strategy_tuple!(A);
impl_strategy_tuple!(A, B);
impl_strategy_tuple!(A, B, C);
impl_strategy_tuple!(A, B, C, D);
impl_strategy_tuple!(A, B, C, D, E);
impl_strategy_tuple!(A, B, C, D, E, F);

// ---------------------------------------------------------------------------
// String (regex-subset) strategies
// ---------------------------------------------------------------------------

/// `&str` strategies interpret the string as a small regex subset:
/// literal characters, `.` (printable ASCII), `\PC` (any printable char,
/// occasionally non-ASCII), character classes like `[a-z0-9]`, and the
/// repetitions `{n}`, `{n,m}`, `*`, `+`, `?` applying to the previous atom.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

#[derive(Debug, Clone)]
enum Atom {
    Literal(char),
    AnyPrintable,
    AnyChar,
    Class(Vec<(char, char)>),
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let atom = match c {
            '.' => Atom::AnyPrintable,
            '\\' => match chars.next() {
                Some('P') => {
                    // proptest's `\PC`: any char. Keep it printable-biased.
                    if chars.peek() == Some(&'C') {
                        chars.next();
                    }
                    Atom::AnyChar
                }
                Some('d') => Atom::Class(vec![('0', '9')]),
                Some('w') => Atom::Class(vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')]),
                Some(other) => Atom::Literal(other),
                None => break,
            },
            '[' => {
                let mut ranges = Vec::new();
                let mut prev: Option<char> = None;
                for cc in chars.by_ref() {
                    match cc {
                        ']' => break,
                        '-' => {
                            // Range marker; resolved by the next char.
                            prev = Some('-');
                        }
                        other => {
                            if prev == Some('-') {
                                if let Some((lo, _)) = ranges.pop() {
                                    ranges.push((lo, other));
                                    prev = None;
                                    continue;
                                }
                            }
                            ranges.push((other, other));
                            prev = Some(other);
                        }
                    }
                }
                if ranges.is_empty() {
                    continue;
                }
                Atom::Class(ranges)
            }
            other => Atom::Literal(other),
        };
        // Optional repetition suffix.
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for cc in chars.by_ref() {
                    if cc == '}' {
                        break;
                    }
                    spec.push(cc);
                }
                match spec.split_once(',') {
                    Some((a, b)) => (
                        a.trim().parse::<usize>().unwrap_or(0),
                        b.trim().parse::<usize>().unwrap_or(8),
                    ),
                    None => {
                        let n = spec.trim().parse::<usize>().unwrap_or(1);
                        (n, n)
                    }
                }
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            _ => (1, 1),
        };
        let count = min + rng.below(max - min + 1);
        for _ in 0..count {
            out.push(sample_atom(&atom, rng));
        }
    }
    out
}

fn sample_atom(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::Literal(c) => *c,
        Atom::AnyPrintable => (0x20u8 + rng.below(0x5f) as u8) as char,
        Atom::AnyChar => {
            if rng.below(8) == 0 {
                char::from_u32(0xA0 + rng.below(0x2000) as u32).unwrap_or('\u{fffd}')
            } else {
                (0x20u8 + rng.below(0x5f) as u8) as char
            }
        }
        Atom::Class(ranges) => {
            let (lo, hi) = ranges[rng.below(ranges.len())];
            let span = hi as u32 - lo as u32 + 1;
            char::from_u32(lo as u32 + rng.below(span as usize) as u32).unwrap_or(lo)
        }
    }
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Size specification for collection strategies.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<T>` with sizes drawn from the given range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.max - self.size.min + 1;
            let len = self.size.min + rng.below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_fns {
    ( ($config:expr)
      $(
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:pat_param in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                let mut __rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (maps to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (maps to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Weighted or unweighted choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// The usual glob import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };

    /// Mirror of `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::test_rng("ranges");
        let s = (0u64..6, 1u64..8, any::<bool>());
        for _ in 0..1_000 {
            let (a, b, _c) = s.generate(&mut rng);
            assert!(a < 6 && (1..8).contains(&b));
        }
    }

    #[test]
    fn oneof_respects_value_set() {
        let mut rng = crate::test_rng("oneof");
        let s = prop_oneof![
            2 => Just(1u8),
            1 => Just(2u8),
        ];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v == 1 || v == 2);
            seen[v as usize] = true;
        }
        assert!(seen[1] && seen[2]);
    }

    #[test]
    fn string_patterns_generate_expected_shapes() {
        let mut rng = crate::test_rng("strings");
        for _ in 0..500 {
            let s = "\\PC{0,12}".generate(&mut rng);
            assert!(s.chars().count() <= 12);
            let t = "[a-z]{3}".generate(&mut rng);
            assert_eq!(t.len(), 3);
            assert!(t.chars().all(|c| c.is_ascii_lowercase()));
            let dot = ".{0,24}".generate(&mut rng);
            assert!(dot.chars().count() <= 24);
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = crate::test_rng("vec");
        let s = collection::vec(any::<u8>(), 1..5);
        for _ in 0..500 {
            let v = s.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn recursive_terminates() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn weight(t: &Tree) -> u64 {
            match t {
                Tree::Leaf(v) => *v as u64,
                Tree::Node(children) => children.iter().map(weight).sum(),
            }
        }
        let strat = any::<u8>()
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 4, |inner| {
                collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
        let mut rng = crate::test_rng("recursive");
        let mut total = 0u64;
        for _ in 0..200 {
            // Must not hang or overflow the stack.
            total += weight(&strat.generate(&mut rng));
        }
        assert!(total > 0, "200 random trees produced zero total weight");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro form itself.
        #[test]
        fn macro_form_works(v in collection::vec(any::<u8>(), 0..10), x in 0usize..5) {
            prop_assert!(v.len() < 10);
            prop_assert_eq!(x.min(4), x);
        }
    }
}
