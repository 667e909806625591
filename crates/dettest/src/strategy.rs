//! Composable value generators with built-in shrinking.
//!
//! A [`Strategy`] produces a [`Shrink`] tree: the generated value plus its
//! lazily-enumerated simpler alternatives. Combinators (`map`, tuples,
//! [`vec_of`], [`one_of`], …) compose both the generation and the shrinking,
//! so a counterexample found through any stack of combinators still shrinks
//! toward a minimal one.
//!
//! Integer ranges are strategies directly (`0i32..100`, `1u64..=9`), like
//! proptest; they shrink toward the in-range value closest to zero.

use crate::rng::Rng;
use crate::shrink::{zip, Shrink};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A composable generator of test values.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + Debug + 'static;

    /// Generate one value together with its shrink tree.
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value>;

    /// Generate a value, discarding the shrink tree. Useful for building
    /// fixtures (e.g. a record set indexed once per test run).
    fn sample(&self, rng: &mut Rng) -> Self::Value {
        self.tree(rng).value
    }

    /// Transform generated values; shrinking happens on the source values
    /// and is re-mapped, so mapped strategies still shrink.
    fn prop_map<U, F>(self, f: F) -> Map<Self, U>
    where
        Self: Sized,
        U: Clone + Debug + 'static,
        F: Fn(Self::Value) -> U + 'static,
    {
        Map { inner: self, f: Rc::new(move |v: &Self::Value| f(v.clone())) }
    }

    /// Type-erase, for heterogeneous collections ([`one_of`], [`weighted`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

// --- integers ---------------------------------------------------------------

fn rng_i128(rng: &mut Rng, lo: i128, hi: i128) -> i128 {
    debug_assert!(lo <= hi);
    let span = (hi - lo) as u128 + 1;
    let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
    lo + off
}

fn int_children(v: i128, origin: i128) -> Vec<i128> {
    let mut out = Vec::new();
    if v == origin {
        return out;
    }
    out.push(origin);
    let mut d = v - origin;
    loop {
        d /= 2;
        if d == 0 {
            break;
        }
        let c = v - d;
        if c != origin {
            out.push(c);
        }
    }
    out
}

fn i128_tree(v: i128, origin: i128) -> Shrink<i128> {
    Shrink::new(v, move || {
        int_children(v, origin).into_iter().map(|c| i128_tree(c, origin)).collect()
    })
}

fn int_range_tree<T>(rng: &mut Rng, lo: i128, hi: i128, cast: fn(&i128) -> T) -> Shrink<T>
where
    T: Clone + Debug + 'static,
{
    assert!(lo <= hi, "empty range strategy");
    let v = rng_i128(rng, lo, hi);
    // Shrink toward the in-range value nearest zero.
    let origin = lo.max(0).min(hi);
    i128_tree(v, origin).map(Rc::new(cast))
}

macro_rules! int_strategies {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn tree(&self, rng: &mut Rng) -> Shrink<$t> {
                assert!(self.start < self.end, "empty range strategy");
                int_range_tree(rng, self.start as i128, self.end as i128 - 1, |v| *v as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn tree(&self, rng: &mut Rng) -> Shrink<$t> {
                int_range_tree(rng, *self.start() as i128, *self.end() as i128, |v| *v as $t)
            }
        }
    )*};
}

int_strategies!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

// --- primitives -------------------------------------------------------------

/// Strategy for booleans; `true` shrinks to `false`.
#[derive(Debug, Clone, Copy)]
pub struct Bools;

/// Any boolean.
pub fn bools() -> Bools {
    Bools
}

impl Strategy for Bools {
    type Value = bool;
    fn tree(&self, rng: &mut Rng) -> Shrink<bool> {
        let v = rng.bool();
        Shrink::new(v, move || if v { vec![Shrink::leaf(false)] } else { vec![] })
    }
}

/// The constant strategy: always `value`, never shrinks.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

/// Always generate `value`.
pub fn just<T: Clone + Debug + 'static>(value: T) -> Just<T> {
    Just(value)
}

impl<T: Clone + Debug + 'static> Strategy for Just<T> {
    type Value = T;
    fn tree(&self, _rng: &mut Rng) -> Shrink<T> {
        Shrink::leaf(self.0.clone())
    }
}

// --- map --------------------------------------------------------------------

/// See [`Strategy::prop_map`].
pub struct Map<S: Strategy, U> {
    inner: S,
    f: MapFn<S::Value, U>,
}

/// The shared mapping function a [`Map`] applies to every shrink node.
type MapFn<T, U> = Rc<dyn Fn(&T) -> U>;

impl<S: Strategy, U: Clone + Debug + 'static> Strategy for Map<S, U> {
    type Value = U;
    fn tree(&self, rng: &mut Rng) -> Shrink<U> {
        self.inner.tree(rng).map(Rc::clone(&self.f))
    }
}

// --- boxing / choice --------------------------------------------------------

trait DynStrategy<T> {
    fn dyn_tree(&self, rng: &mut Rng) -> Shrink<T>;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_tree(&self, rng: &mut Rng) -> Shrink<S::Value> {
        self.tree(rng)
    }
}

/// A type-erased strategy (see [`Strategy::boxed`]).
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Clone + Debug + 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn tree(&self, rng: &mut Rng) -> Shrink<T> {
        self.0.dyn_tree(rng)
    }
}

/// Uniform choice among alternatives. The chosen alternative's own shrink
/// tree is used (no cross-alternative shrinking).
pub struct OneOf<T>(Weighted<T>);

/// Pick one of `alts` uniformly per case: a [`weighted`] choice with every
/// weight 1, which draws the same index a uniform pick would.
pub fn one_of<T: Clone + Debug + 'static>(alts: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    assert!(!alts.is_empty(), "one_of of nothing");
    OneOf(weighted(alts.into_iter().map(|s| (1, s)).collect()))
}

impl<T: Clone + Debug + 'static> Strategy for OneOf<T> {
    type Value = T;
    fn tree(&self, rng: &mut Rng) -> Shrink<T> {
        self.0.tree(rng)
    }
}

/// Weighted choice among alternatives.
pub struct Weighted<T> {
    alts: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

/// Pick among `alts` with probability proportional to each weight.
pub fn weighted<T: Clone + Debug + 'static>(alts: Vec<(u32, BoxedStrategy<T>)>) -> Weighted<T> {
    let total: u64 = alts.iter().map(|(w, _)| *w as u64).sum();
    assert!(total > 0, "weighted choice needs positive total weight");
    Weighted { alts, total }
}

impl<T: Clone + Debug + 'static> Strategy for Weighted<T> {
    type Value = T;
    #[expect(clippy::unreachable, reason = "weighted() asserts a positive total, so the roll lands on an alternative")]
    fn tree(&self, rng: &mut Rng) -> Shrink<T> {
        let mut roll = rng.below(self.total);
        for (w, s) in &self.alts {
            if roll < *w as u64 {
                return s.tree(rng);
            }
            roll -= *w as u64;
        }
        unreachable!("roll below total weight")
    }
}

/// `Option<T>` strategy: `None` one case in four; `Some` shrinks to `None`
/// first, then shrinks its payload.
pub struct OptionOf<S>(S);

/// Generate `None` or `Some` from the inner strategy.
pub fn option_of<S: Strategy>(inner: S) -> OptionOf<S> {
    OptionOf(inner)
}

impl<S: Strategy> Strategy for OptionOf<S> {
    type Value = Option<S::Value>;
    fn tree(&self, rng: &mut Rng) -> Shrink<Option<S::Value>> {
        if rng.below(4) == 0 {
            Shrink::leaf(None)
        } else {
            let t = self.0.tree(rng);
            some_tree(t)
        }
    }
}

fn some_tree<T: Clone + Debug + 'static>(t: Shrink<T>) -> Shrink<Option<T>> {
    let value = Some(t.value.clone());
    Shrink::new(value, move || {
        let mut kids = vec![Shrink::leaf(None)];
        kids.extend(t.children().into_iter().map(some_tree));
        kids
    })
}

// --- vectors ----------------------------------------------------------------

/// Length bound for [`vec_of`] / [`string_from`]: a `usize` for an exact
/// length, `a..b`, or `a..=b`.
pub trait LenRange {
    /// `(min, max)` inclusive.
    fn bounds(&self) -> (usize, usize);
}

impl LenRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl LenRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty length range");
        (self.start, self.end - 1)
    }
}

impl LenRange for RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty length range");
        (*self.start(), *self.end())
    }
}

/// Vector strategy (see [`vec_of`]).
pub struct VecOf<S> {
    elem: S,
    min: usize,
    max: usize,
}

/// Vectors of `elem` values with length within `len`. Shrinks by removing
/// chunks of elements (largest first, never below the minimum length), then
/// by shrinking individual elements.
pub fn vec_of<S: Strategy>(elem: S, len: impl LenRange) -> VecOf<S> {
    let (min, max) = len.bounds();
    VecOf { elem, min, max }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn tree(&self, rng: &mut Rng) -> Shrink<Vec<S::Value>> {
        let n = rng.range_u64(self.min as u64, self.max as u64) as usize;
        let elems: Vec<Shrink<S::Value>> = (0..n).map(|_| self.elem.tree(rng)).collect();
        vec_tree(elems, self.min)
    }
}

fn vec_tree<T: Clone + 'static>(elems: Vec<Shrink<T>>, min: usize) -> Shrink<Vec<T>> {
    let value: Vec<T> = elems.iter().map(|e| e.value.clone()).collect();
    Shrink::new(value, move || {
        let mut kids = Vec::new();
        let n = elems.len();
        // Remove chunks, largest first — gets small fast, then fine-tunes.
        let mut k = n - min;
        while k > 0 {
            let mut start = 0;
            while start + k <= n {
                let rest = elems.iter().take(start).chain(elems.iter().skip(start + k)).cloned().collect();
                kids.push(vec_tree(rest, min));
                start += k;
            }
            k /= 2;
        }
        // Shrink elements in place, left to right.
        for (i, e) in elems.iter().enumerate() {
            for c in e.children() {
                let e2 = elems.iter().take(i).cloned().chain([c]).chain(elems.iter().skip(i + 1).cloned()).collect();
                kids.push(vec_tree(e2, min));
            }
        }
        kids
    })
}

// --- strings ----------------------------------------------------------------

/// Strings drawn from an explicit alphabet — the replacement for regex-class
/// generators like `[a-z_:]{1,10}`. Shrinks like a vector of characters,
/// with each character shrinking toward the first alphabet entry.
pub fn string_from(alphabet: &str, len: impl LenRange) -> Map<VecOf<Range<usize>>, String> {
    let chars: Vec<char> = alphabet.chars().collect();
    assert!(!chars.is_empty(), "empty alphabet");
    let n = chars.len();
    vec_of(0..n, len).prop_map(move |ids| ids.into_iter().filter_map(|i| chars.get(i)).collect())
}

// --- tuples -----------------------------------------------------------------

impl<S0: Strategy> Strategy for (S0,) {
    type Value = (S0::Value,);
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value> {
        self.0.tree(rng).map(Rc::new(|v: &S0::Value| (v.clone(),)))
    }
}

impl<S0: Strategy, S1: Strategy> Strategy for (S0, S1) {
    type Value = (S0::Value, S1::Value);
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value> {
        zip(self.0.tree(rng), self.1.tree(rng))
    }
}

impl<S0: Strategy, S1: Strategy, S2: Strategy> Strategy for (S0, S1, S2) {
    type Value = (S0::Value, S1::Value, S2::Value);
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value> {
        let t = zip(zip(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng));
        t.map(Rc::new(|((a, b), c)| (a.clone(), b.clone(), c.clone())))
    }
}

impl<S0: Strategy, S1: Strategy, S2: Strategy, S3: Strategy> Strategy for (S0, S1, S2, S3) {
    type Value = (S0::Value, S1::Value, S2::Value, S3::Value);
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value> {
        let t = zip(
            zip(zip(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng)),
            self.3.tree(rng),
        );
        t.map(Rc::new(|(((a, b), c), d)| (a.clone(), b.clone(), c.clone(), d.clone())))
    }
}

impl<S0: Strategy, S1: Strategy, S2: Strategy, S3: Strategy, S4: Strategy> Strategy
    for (S0, S1, S2, S3, S4)
{
    type Value = (S0::Value, S1::Value, S2::Value, S3::Value, S4::Value);
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value> {
        let t = zip(
            zip(
                zip(zip(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng)),
                self.3.tree(rng),
            ),
            self.4.tree(rng),
        );
        t.map(Rc::new(|((((a, b), c), d), e)| {
            (a.clone(), b.clone(), c.clone(), d.clone(), e.clone())
        }))
    }
}

impl<S0: Strategy, S1: Strategy, S2: Strategy, S3: Strategy, S4: Strategy, S5: Strategy> Strategy
    for (S0, S1, S2, S3, S4, S5)
{
    type Value = (S0::Value, S1::Value, S2::Value, S3::Value, S4::Value, S5::Value);
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value> {
        let t = zip(
            zip(
                zip(
                    zip(zip(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng)),
                    self.3.tree(rng),
                ),
                self.4.tree(rng),
            ),
            self.5.tree(rng),
        );
        t.map(Rc::new(|(((((a, b), c), d), e), f)| {
            (a.clone(), b.clone(), c.clone(), d.clone(), e.clone(), f.clone())
        }))
    }
}

impl<
        S0: Strategy,
        S1: Strategy,
        S2: Strategy,
        S3: Strategy,
        S4: Strategy,
        S5: Strategy,
        S6: Strategy,
    > Strategy for (S0, S1, S2, S3, S4, S5, S6)
{
    type Value =
        (S0::Value, S1::Value, S2::Value, S3::Value, S4::Value, S5::Value, S6::Value);
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value> {
        let t = zip(
            zip(
                zip(
                    zip(
                        zip(zip(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng)),
                        self.3.tree(rng),
                    ),
                    self.4.tree(rng),
                ),
                self.5.tree(rng),
            ),
            self.6.tree(rng),
        );
        t.map(Rc::new(|((((((a, b), c), d), e), f), g)| {
            (a.clone(), b.clone(), c.clone(), d.clone(), e.clone(), f.clone(), g.clone())
        }))
    }
}

impl<
        S0: Strategy,
        S1: Strategy,
        S2: Strategy,
        S3: Strategy,
        S4: Strategy,
        S5: Strategy,
        S6: Strategy,
        S7: Strategy,
    > Strategy for (S0, S1, S2, S3, S4, S5, S6, S7)
{
    type Value = (
        S0::Value,
        S1::Value,
        S2::Value,
        S3::Value,
        S4::Value,
        S5::Value,
        S6::Value,
        S7::Value,
    );
    fn tree(&self, rng: &mut Rng) -> Shrink<Self::Value> {
        let t = zip(
            zip(
                zip(
                    zip(
                        zip(
                            zip(zip(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng)),
                            self.3.tree(rng),
                        ),
                        self.4.tree(rng),
                    ),
                    self.5.tree(rng),
                ),
                self.6.tree(rng),
            ),
            self.7.tree(rng),
        );
        t.map(Rc::new(|(((((((a, b), c), d), e), f), g), h)| {
            (
                a.clone(),
                b.clone(),
                c.clone(),
                d.clone(),
                e.clone(),
                f.clone(),
                g.clone(),
                h.clone(),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(0xDE77E57)
    }

    #[test]
    fn ranges_generate_in_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let v = (10i32..20).sample(&mut r);
            assert!((10..20).contains(&v));
            let w = (5u64..=9).sample(&mut r);
            assert!((5..=9).contains(&w));
        }
    }

    #[test]
    fn int_shrink_heads_toward_origin() {
        let t = i128_tree(100, 10);
        let kids = t.children();
        assert_eq!(kids[0].value, 10, "most aggressive candidate first");
        assert!(kids.iter().all(|k| (10..100).contains(&k.value)));
    }

    #[test]
    fn negative_range_shrinks_toward_high_end() {
        let mut r = rng();
        // Range entirely below zero: origin is the max.
        let t = (-50i32..=-10).tree(&mut r);
        if t.value != -10 {
            assert_eq!(t.children()[0].value, -10);
        }
    }

    #[test]
    fn map_shrinks_through() {
        let mut r = rng();
        let s = (0i64..1000).prop_map(|v| format!("n={v}"));
        let t = s.tree(&mut r);
        for kid in t.children() {
            assert!(kid.value.starts_with("n="));
        }
    }

    #[test]
    fn vec_of_respects_lengths_and_shrinks_smaller() {
        let mut r = rng();
        for _ in 0..100 {
            let t = vec_of(0u8..=255, 2..=5).tree(&mut r);
            assert!((2..=5).contains(&t.value.len()));
            for kid in t.children() {
                assert!(kid.value.len() >= 2);
                assert!(kid.value.len() <= t.value.len());
            }
        }
    }

    #[test]
    fn exact_length_vec_never_shrinks_length() {
        let mut r = rng();
        let t = vec_of(0u32..5, 3usize).tree(&mut r);
        assert_eq!(t.value.len(), 3);
        for kid in t.children() {
            assert_eq!(kid.value.len(), 3);
        }
    }

    #[test]
    fn string_from_uses_alphabet_only() {
        let mut r = rng();
        for _ in 0..200 {
            let s = string_from("abc<>&", 0..=10).sample(&mut r);
            assert!(s.chars().all(|c| "abc<>&".contains(c)));
        }
    }

    #[test]
    fn one_of_covers_all_alternatives() {
        let mut r = rng();
        let s = one_of(vec![just(1u8).boxed(), just(2u8).boxed(), just(3u8).boxed()]);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.sample(&mut r) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn weighted_respects_zero_weight() {
        let mut r = rng();
        let s = weighted(vec![(0, just(1u8).boxed()), (5, just(2u8).boxed())]);
        for _ in 0..200 {
            assert_eq!(s.sample(&mut r), 2);
        }
    }

    #[test]
    fn option_of_generates_both_and_shrinks_to_none() {
        let mut r = rng();
        let s = option_of(1i32..100);
        let (mut some, mut none) = (false, false);
        for _ in 0..200 {
            let t = s.tree(&mut r);
            match t.value {
                Some(_) => {
                    some = true;
                    assert_eq!(t.children()[0].value, None);
                }
                None => none = true,
            }
        }
        assert!(some && none);
    }

    #[test]
    fn tuples_compose() {
        let mut r = rng();
        let s = (0i32..10, bools(), string_from("xy", 1..=2));
        let (n, _b, txt) = s.sample(&mut r);
        assert!((0..10).contains(&n));
        assert!(!txt.is_empty());
    }

    #[test]
    fn bool_true_shrinks_false() {
        let t = Shrink::new(true, || vec![Shrink::leaf(false)]);
        assert_eq!(t.children()[0].value, false);
    }
}
