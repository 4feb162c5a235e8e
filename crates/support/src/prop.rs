//! A small property-based testing harness, replacing the `proptest`
//! crate for this workspace.
//!
//! The moving parts mirror proptest's design:
//!
//! * a [`Strategy`] produces a lazy **shrink tree** ([`Tree`]) per case:
//!   the root is the generated value, children are progressively
//!   simpler candidates;
//! * the [`proptest!`](crate::proptest) macro wraps each property in a `#[test]` that
//!   draws `cases` seeded inputs, and on failure walks the shrink tree
//!   greedily to a local minimum before reporting;
//! * every failure report ends with a one-line reproduction command:
//!   setting `COLLSEL_PROP_SEED=<seed>` re-runs exactly the failing
//!   case (generation is a pure function of the per-case seed).
//!
//! ```
//! use collsel_support::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(16))]
//!     // In a test module, put `#[test]` on the property.
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```

use crate::rng::StdRng;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Environment variable that pins the harness to a single case seed.
pub const SEED_ENV: &str = "COLLSEL_PROP_SEED";

/// How many shrink candidates a failing case may evaluate.
const SHRINK_BUDGET: usize = 500;

// ---------------------------------------------------------------------------
// Outcome of one test-case execution
// ---------------------------------------------------------------------------

/// Why a single test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property is false for this input.
    Fail(String),
    /// The input does not satisfy a `prop_assume!` precondition; the
    /// case is discarded and redrawn, not counted as a failure.
    Reject(String),
}

impl TestCaseError {
    /// A failed property with the given explanation.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (filtered-out) input.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Result type property bodies evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

// ---------------------------------------------------------------------------
// Shrink trees
// ---------------------------------------------------------------------------

/// A lazily expanded shrink tree: the generated value plus a thunk
/// producing simpler candidate values, each with its own subtree.
pub struct Tree<T> {
    value: T,
    children: Rc<dyn Fn() -> Vec<Tree<T>>>,
}

impl<T> std::fmt::Debug for Tree<T>
where
    T: Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tree").field("value", &self.value).finish()
    }
}

impl<T> Clone for Tree<T>
where
    T: Clone,
{
    fn clone(&self) -> Self {
        Tree {
            value: self.value.clone(),
            children: Rc::clone(&self.children),
        }
    }
}

impl<T: Clone + 'static> Tree<T> {
    /// A tree with no shrink candidates.
    pub fn leaf(value: T) -> Self {
        Tree {
            value,
            children: Rc::new(Vec::new),
        }
    }

    /// A tree with lazily computed candidates.
    pub fn with_children(value: T, children: impl Fn() -> Vec<Tree<T>> + 'static) -> Self {
        Tree {
            value,
            children: Rc::new(children),
        }
    }

    /// The value at this node.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Expands the shrink candidates, simplest first.
    pub fn children(&self) -> Vec<Tree<T>> {
        (self.children)()
    }

    /// Maps the whole tree through `f`, keeping the shrink structure.
    pub fn map<U: Clone + 'static>(&self, f: Rc<dyn Fn(&T) -> U>) -> Tree<U> {
        let value = f(&self.value);
        let children = Rc::clone(&self.children);
        Tree {
            value,
            children: Rc::new(move || children().iter().map(|c| c.map(Rc::clone(&f))).collect()),
        }
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A recipe for generating (and shrinking) values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Clone + Debug + 'static;

    /// Draws one value with its shrink tree from `rng`.
    fn new_tree(&self, rng: &mut StdRng) -> Tree<Self::Value>;

    /// Derives a strategy by mapping generated values through `f`.
    /// Shrinking happens on the *source* values, so mapped strategies
    /// shrink as well as their inputs.
    fn prop_map<U, F>(self, f: F) -> Map<Self, U>
    where
        Self: Sized,
        U: Clone + Debug + 'static,
        F: Fn(Self::Value) -> U + 'static,
    {
        Map {
            inner: self,
            f: Rc::new(move |v: &Self::Value| f(v.clone())),
        }
    }
}

/// The shared mapping function of a [`Map`].
type MapFn<T, U> = Rc<dyn Fn(&T) -> U>;

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S: Strategy, U> {
    inner: S,
    f: MapFn<S::Value, U>,
}

impl<S: Strategy, U> Debug for Map<S, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Map").finish_non_exhaustive()
    }
}

impl<S, U> Strategy for Map<S, U>
where
    S: Strategy,
    U: Clone + Debug + 'static,
{
    type Value = U;
    fn new_tree(&self, rng: &mut StdRng) -> Tree<U> {
        self.inner.new_tree(rng).map(Rc::clone(&self.f))
    }
}

fn int_tree_u64(value: u64, lo: u64) -> Tree<u64> {
    Tree::with_children(value, move || {
        let mut out = Vec::new();
        if value > lo {
            out.push(int_tree_u64(lo, lo));
            let mut delta = value - lo;
            loop {
                delta /= 2;
                if delta == 0 {
                    break;
                }
                let cand = value - delta;
                if cand != lo {
                    out.push(int_tree_u64(cand, lo));
                }
            }
        }
        out
    })
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_tree(&self, rng: &mut StdRng) -> Tree<$t> {
                let v = rng.gen_range(self.clone());
                int_tree_u64(v as u64, self.start as u64)
                    .map(Rc::new(|&v| v as $t))
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

fn f64_tree(value: f64, lo: f64) -> Tree<f64> {
    Tree::with_children(value, move || {
        let mut out = Vec::new();
        // Shrink toward the low bound, halving the distance; stop once
        // the step is negligible so the tree stays finite in practice.
        if (value - lo).abs() > lo.abs() * 1e-6 + 1e-12 {
            out.push(f64_tree(lo, lo));
            let mid = lo + (value - lo) / 2.0;
            if mid != lo && mid != value {
                out.push(f64_tree(mid, lo));
            }
        }
        out
    })
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_tree(&self, rng: &mut StdRng) -> Tree<f64> {
        f64_tree(rng.gen_range(self.clone()), self.start)
    }
}

/// Strategy for a full-range primitive, mirroring `proptest::any`.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Generates any value of `T` (currently `u64`-family integers).
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn new_tree(&self, rng: &mut StdRng) -> Tree<$t> {
                let v = rng.next_u64() as $t;
                int_tree_u64(v as u64, 0).map(Rc::new(|&v| v as $t))
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize);

/// `prop::sample` — choosing among explicit alternatives.
pub mod sample {
    use super::*;

    /// Strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Picks one of `options` uniformly; shrinks toward the first.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn select<T: Clone + Debug + 'static>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    impl<T: Clone + Debug + 'static> Strategy for Select<T> {
        type Value = T;
        fn new_tree(&self, rng: &mut StdRng) -> Tree<T> {
            let idx = rng.gen_range(0..self.options.len());
            let options = self.options.clone();
            int_tree_u64(idx as u64, 0).map(Rc::new(move |&i| options[i as usize].clone()))
        }
    }
}

/// `prop::collection` — strategies for containers.
pub mod collection {
    use super::*;

    fn vec_tree<T: Clone + Debug + 'static>(elems: Vec<Tree<T>>, min_len: usize) -> Tree<Vec<T>> {
        let value: Vec<T> = elems.iter().map(|t| t.value().clone()).collect();
        Tree::with_children(value, move || {
            let mut out = Vec::new();
            // First try dropping whole elements...
            if elems.len() > min_len {
                for i in 0..elems.len() {
                    let mut rest = elems.clone();
                    rest.remove(i);
                    out.push(vec_tree(rest, min_len));
                }
            }
            // ...then shrinking elements in place.
            for i in 0..elems.len() {
                for c in elems[i].children() {
                    let mut next = elems.clone();
                    next[i] = c;
                    out.push(vec_tree(next, min_len));
                }
            }
            out
        })
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `len` and whose elements come
    /// from `elem`. Shrinks by removing elements (down to `len.start`)
    /// and by shrinking elements individually.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_tree(&self, rng: &mut StdRng) -> Tree<Vec<S::Value>> {
            let n = rng.gen_range(self.len.clone());
            let elems: Vec<Tree<S::Value>> = (0..n).map(|_| self.elem.new_tree(rng)).collect();
            vec_tree(elems, self.len.start)
        }
    }

    fn set_tree<T: Clone + Ord + Debug + 'static>(
        elems: Vec<Tree<T>>,
        min_len: usize,
    ) -> Tree<BTreeSet<T>> {
        let value: BTreeSet<T> = elems.iter().map(|t| t.value().clone()).collect();
        Tree::with_children(value, move || {
            let mut out = Vec::new();
            if elems.len() > min_len {
                for i in 0..elems.len() {
                    let mut rest = elems.clone();
                    rest.remove(i);
                    out.push(set_tree(rest, min_len));
                }
            }
            for i in 0..elems.len() {
                for c in elems[i].children() {
                    // Skip candidates that collide with another element:
                    // deduplication would silently drop below min_len.
                    let collides = elems
                        .iter()
                        .enumerate()
                        .any(|(j, e)| j != i && e.value() == c.value());
                    if collides {
                        continue;
                    }
                    let mut next = elems.clone();
                    next[i] = c;
                    out.push(set_tree(next, min_len));
                }
            }
            out
        })
    }

    /// Strategy returned by [`btree_set`].
    #[derive(Debug)]
    pub struct BTreeSetStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A `BTreeSet` with `len` distinct elements drawn from `elem`.
    pub fn btree_set<S>(elem: S, len: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { elem, len }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn new_tree(&self, rng: &mut StdRng) -> Tree<BTreeSet<S::Value>> {
            let n = rng.gen_range(self.len.clone());
            let mut elems: Vec<Tree<S::Value>> = Vec::with_capacity(n);
            let mut attempts = 0usize;
            while elems.len() < n && attempts < n * 50 + 50 {
                attempts += 1;
                let t = self.elem.new_tree(rng);
                if elems.iter().all(|e| e.value() != t.value()) {
                    elems.push(t);
                }
            }
            set_tree(elems, self.len.start)
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($helper:ident: $($S:ident . $idx:tt),+) => {
        fn $helper<$($S: Clone + Debug + 'static),+>(
            trees: ($(Tree<$S>,)+),
        ) -> Tree<($($S,)+)> {
            let value = ($(trees.$idx.value().clone(),)+);
            Tree::with_children(value, move || {
                let mut out: Vec<Tree<($($S,)+)>> = Vec::new();
                $(
                    for c in trees.$idx.children() {
                        let mut next = trees.clone();
                        next.$idx = c;
                        out.push($helper(next));
                    }
                )+
                out
            })
        }

        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn new_tree(&self, rng: &mut StdRng) -> Tree<Self::Value> {
                $helper(($(self.$idx.new_tree(rng),)+))
            }
        }
    };
}

impl_tuple_strategy!(tuple_tree1: A.0);
impl_tuple_strategy!(tuple_tree2: A.0, B.1);
impl_tuple_strategy!(tuple_tree3: A.0, B.1, C.2);
impl_tuple_strategy!(tuple_tree4: A.0, B.1, C.2, D.3);
impl_tuple_strategy!(tuple_tree5: A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(tuple_tree6: A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(tuple_tree7: A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_tuple_strategy!(tuple_tree8: A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Per-property configuration, mirroring `proptest::ProptestConfig`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of successful cases required for the property to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

enum CaseOutcome {
    Pass,
    Reject,
    Fail(String),
}

fn run_one<V, F>(test: &F, value: V) -> CaseOutcome
where
    F: Fn(V) -> TestCaseResult,
{
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(Ok(())) => CaseOutcome::Pass,
        Ok(Err(TestCaseError::Reject(_))) => CaseOutcome::Reject,
        Ok(Err(TestCaseError::Fail(msg))) => CaseOutcome::Fail(msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panicked with non-string payload".to_string());
            CaseOutcome::Fail(format!("panic: {msg}"))
        }
    }
}

/// Greedily descends the shrink tree to a locally minimal failing value.
fn shrink<V, F>(mut tree: Tree<V>, mut msg: String, test: &F) -> (V, String)
where
    V: Clone + Debug + 'static,
    F: Fn(V) -> TestCaseResult,
{
    let mut evals = 0usize;
    'descend: loop {
        for child in tree.children() {
            if evals >= SHRINK_BUDGET {
                break 'descend;
            }
            evals += 1;
            if let CaseOutcome::Fail(m) = run_one(test, child.value().clone()) {
                msg = m;
                tree = child;
                continue 'descend;
            }
        }
        break;
    }
    (tree.value().clone(), msg)
}

/// Drives one property: draws seeded cases, shrinks failures, panics
/// with a report ending in a reproduction command.
///
/// Normally invoked through the [`proptest!`](crate::proptest) macro,
/// which supplies `pkg`/`name` from the call site.
pub fn run_property<S, F>(config: &ProptestConfig, pkg: &str, name: &str, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    let fn_name = name.rsplit("::").next().unwrap_or(name);
    let fail = |seed: u64, passed: u32, value: &S::Value, msg: &str| -> ! {
        panic!(
            "property {name} failed after {passed} passing case(s)\n\
             \x20 failure: {msg}\n\
             \x20 minimal input: {value:?}\n\
             \x20 reproduce with: {SEED_ENV}={seed} cargo test -p {pkg} {fn_name}"
        );
    };

    if let Ok(seed_text) = std::env::var(SEED_ENV) {
        let seed: u64 = seed_text
            .parse()
            .unwrap_or_else(|_| panic!("invalid {SEED_ENV} value `{seed_text}`"));
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = strategy.new_tree(&mut rng);
        match run_one(&test, tree.value().clone()) {
            CaseOutcome::Pass => println!("{name}: seed {seed} passes"),
            CaseOutcome::Reject => println!("{name}: seed {seed} rejected by prop_assume"),
            CaseOutcome::Fail(msg) => {
                let (value, msg) = shrink(tree, msg, &test);
                fail(seed, 0, &value, &msg);
            }
        }
        return;
    }

    let base_seed = fnv1a(name);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.cases * 20 + 100;
    let mut draw = 0u64;
    while passed < config.cases {
        let case_seed = base_seed.wrapping_add(draw);
        draw += 1;
        let mut rng = StdRng::seed_from_u64(case_seed);
        let tree = strategy.new_tree(&mut rng);
        match run_one(&test, tree.value().clone()) {
            CaseOutcome::Pass => passed += 1,
            CaseOutcome::Reject => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "property {name}: too many prop_assume rejections \
                     ({rejected} rejects for {passed} passes)"
                );
            }
            CaseOutcome::Fail(msg) => {
                let (value, msg) = shrink(tree, msg, &test);
                fail(case_seed, passed, &value, &msg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Defines property-based tests, mirroring `proptest::proptest!`.
///
/// Each `fn name(pat in strategy, ...) { body }` item becomes a
/// `#[test]` that runs the body over generated inputs. An optional
/// leading `#![proptest_config(...)]` sets the case count.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::prop::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let __strategy = ($($strat,)+);
            $crate::prop::run_property(
                &__config,
                env!("CARGO_PKG_NAME"),
                concat!(module_path!(), "::", stringify!($name)),
                &__strategy,
                |__case| {
                    let ($($pat,)+) = __case;
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

/// Fails the enclosing property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::prop::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the enclosing property when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?} == {:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "{}: `{:?}` vs `{:?}`",
            format!($($fmt)*),
            __l,
            __r
        );
    }};
}

/// Discards the current case when `cond` is false (the input does not
/// satisfy the property's precondition).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_trees_shrink_toward_low_bound() {
        let t = int_tree_u64(13, 2);
        let first: Vec<u64> = t.children().iter().map(|c| *c.value()).collect();
        assert_eq!(first[0], 2); // low bound first
        assert!(first.iter().all(|&v| (2..13).contains(&v)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = (0usize..100, 0.0f64..1.0);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            strat.new_tree(&mut a).value(),
            strat.new_tree(&mut b).value()
        );
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Property "x < 10" fails for x >= 10; the minimal
        // counterexample in 0..1000 is exactly 10.
        let strat = 0u64..1000;
        let mut rng = StdRng::seed_from_u64(0);
        // Find a failing tree, then shrink it.
        let tree = loop {
            let t = strat.new_tree(&mut rng);
            if *t.value() >= 10 {
                break t;
            }
        };
        let test = |x: u64| -> TestCaseResult {
            if x < 10 {
                Ok(())
            } else {
                Err(TestCaseError::fail("too big"))
            }
        };
        let (min, _) = shrink(tree, "seed".into(), &test);
        assert_eq!(min, 10);
    }

    #[test]
    fn vec_shrink_removes_and_shrinks_elements() {
        let strat = collection::vec(0usize..100, 2..8);
        let mut rng = StdRng::seed_from_u64(1);
        // Property: no element is >= 50 AND length < 5. Shrinker should
        // find a small witness.
        let test = |v: Vec<usize>| -> TestCaseResult {
            if v.len() >= 5 || v.iter().any(|&x| x >= 50) {
                Err(TestCaseError::fail("bad"))
            } else {
                Ok(())
            }
        };
        let tree = loop {
            let t = strat.new_tree(&mut rng);
            if matches!(run_one(&test, t.value().clone()), CaseOutcome::Fail(_)) {
                break t;
            }
        };
        let (min, _) = shrink(tree, "seed".into(), &test);
        let still_fails = min.len() >= 5 || min.iter().any(|&x| x >= 50);
        assert!(still_fails);
        // Minimal witnesses are either exactly [50, ...] shrunk to len 2
        // (the min length) with one offending element, or length 5 of
        // zeros.
        assert!(min == vec![0, 0, 0, 0, 0] || min.iter().filter(|&&x| x > 0).count() <= 1);
    }

    #[test]
    fn btree_set_respects_min_len_while_shrinking() {
        let strat = collection::btree_set(0usize..1000, 3..6);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let tree = strat.new_tree(&mut rng);
            assert!(tree.value().len() >= 3);
            for c in tree.children() {
                assert!(c.value().len() >= 3, "shrank below min: {:?}", c.value());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The harness itself: tuples, maps, selects and assume all work.
        #[test]
        fn harness_smoke(
            x in 0usize..50,
            label in sample::select(vec!["a", "b", "c"]),
            pair in (0u64..10, 0.0f64..1.0).prop_map(|(a, f)| (a * 2, f)),
        ) {
            prop_assume!(x != 13);
            prop_assert!(x < 50);
            prop_assert!(!label.is_empty());
            prop_assert_eq!(pair.0 % 2, 0);
            prop_assert!((0.0..1.0).contains(&pair.1));
        }
    }
}
