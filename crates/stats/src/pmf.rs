//! Empirical probability mass functions and discrete convolution.
//!
//! The selection model (paper §5.2) computes the pmf of the response time
//! `R_i = S_i + W_i + G_i` (immediate reads, Eq. 5) or
//! `R_i = S_i + W_i + G_i + U_i` (deferred reads, Eq. 6) "as a discrete
//! convolution" of the empirical pmfs of the constituent delays, where the
//! pmfs are built "based on the relative frequency of their values recorded
//! in the sliding window". The value of the response-time distribution
//! function `F_{R_i}(d)` is then read off the accumulated pmf.
//!
//! Samples are `u64` microsecond counts. The pmf is stored sparsely as a
//! sorted vector of `(value, probability)` pairs, so convolving two windows
//! of size `l` costs `O(l^2 log l)` — this cost is exactly what the paper's
//! Figure 3 measures as "computation of the response time distribution
//! function" (90% of the selection overhead). The convolution runs as a
//! k-way merge over the shorter side of the product grid, so it never
//! materializes the `l^2` pair table that a sort-based implementation
//! needs, and it can stop at a bound past which the caller reads nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Upper bound on the speculative output reservation [`Pmf::convolve`]
/// makes. The true support size is at most `l1 * l2` but usually far
/// smaller (sums collide); capping the guess keeps a pair of wide pmfs
/// from reserving quadratic memory up front, while `Vec` growth amortizes
/// the rare larger result.
const CONVOLVE_RESERVE_CAP: usize = 4096;

/// A sparse empirical probability mass function over `u64` sample values.
///
/// # Example
///
/// ```
/// use aqf_stats::Pmf;
///
/// let pmf = Pmf::from_samples([1u64, 1, 3].into_iter());
/// assert!((pmf.probability(1) - 2.0 / 3.0).abs() < 1e-12);
/// assert!((pmf.cdf(2) - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(pmf.cdf(3), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pmf {
    /// Sorted `(value, probability)` pairs with strictly increasing values.
    points: Vec<(u64, f64)>,
    /// Prefix sums of the probabilities: `cum[i] = sum(points[..=i].1)`.
    /// Precomputed once at construction so every CDF query is a binary
    /// search plus one lookup instead of a linear accumulation — the hot
    /// operation of the cached CDF engine, which evaluates a memoized
    /// response-time pmf at many deadlines between window changes.
    cum: Vec<f64>,
}

impl PartialEq for Pmf {
    fn eq(&self, other: &Self) -> bool {
        // `cum` is derived deterministically from `points`.
        self.points == other.points
    }
}

impl Pmf {
    /// Builds a pmf from already sorted, deduplicated points, computing the
    /// cumulative prefix sums.
    fn with_points(points: Vec<(u64, f64)>) -> Self {
        let mut cum = Vec::with_capacity(points.len());
        let mut acc = 0.0f64;
        for &(_, p) in &points {
            acc += p;
            cum.push(acc);
        }
        Self { points, cum }
    }

    /// Builds the empirical pmf of a set of samples by relative frequency.
    ///
    /// Returns an empty pmf if the iterator yields no samples; an empty pmf
    /// behaves as "no information" (its CDF is zero everywhere).
    pub fn from_samples<I: Iterator<Item = u64>>(samples: I) -> Self {
        let mut values: Vec<u64> = samples.collect();
        if values.is_empty() {
            return Self::with_points(Vec::new());
        }
        values.sort_unstable();
        let n = values.len() as f64;
        // Run-length encode the sorted samples; the counts are exact
        // integers, so the probabilities are the same divisions a map-based
        // counter would produce.
        let mut points: Vec<(u64, f64)> = Vec::new();
        let mut run_value = values[0];
        let mut run_len = 0u64;
        for v in values {
            if v == run_value {
                run_len += 1;
            } else {
                points.push((run_value, run_len as f64 / n));
                run_value = v;
                run_len = 1;
            }
        }
        points.push((run_value, run_len as f64 / n));
        Self::with_points(points)
    }

    /// A distribution placing all mass on a single value.
    ///
    /// Used for the gateway delay `G_i`, for which the paper uses "its most
    /// recently recorded value instead of its history" (§5.2.2).
    pub fn point_mass(value: u64) -> Self {
        Self::with_points(vec![(value, 1.0)])
    }

    /// Builds a pmf from explicit `(value, probability)` pairs.
    ///
    /// Total mass within `1e-6` of 1 is accepted and then renormalized to
    /// exactly 1, so rounding drift in externally supplied probabilities
    /// cannot compound through repeated convolutions.
    ///
    /// # Errors
    ///
    /// Returns an error if any probability is negative or not finite, or if
    /// the probabilities of a non-empty pmf do not sum to 1 within `1e-6`.
    pub fn from_points(mut pairs: Vec<(u64, f64)>) -> Result<Self, PmfError> {
        if pairs.iter().any(|&(_, p)| !p.is_finite() || p < 0.0) {
            return Err(PmfError::InvalidProbability);
        }
        pairs.sort_by_key(|&(v, _)| v);
        // Merge duplicate values.
        let mut points: Vec<(u64, f64)> = Vec::with_capacity(pairs.len());
        for (v, p) in pairs {
            match points.last_mut() {
                Some(last) if last.0 == v => last.1 += p,
                _ => points.push((v, p)),
            }
        }
        if !points.is_empty() {
            let total: f64 = points.iter().map(|&(_, p)| p).sum();
            if (total - 1.0).abs() > 1e-6 {
                return Err(PmfError::NotNormalized { total });
            }
            if total != 1.0 {
                for (_, p) in &mut points {
                    *p /= total;
                }
            }
        }
        Ok(Self::with_points(points))
    }

    /// Whether this pmf carries no mass (built from zero samples).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of distinct support points.
    pub fn support_len(&self) -> usize {
        self.points.len()
    }

    /// Iterates over `(value, probability)` support points in increasing
    /// value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Probability mass at exactly `value`.
    pub fn probability(&self, value: u64) -> f64 {
        match self.points.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(idx) => self.points[idx].1,
            Err(_) => 0.0,
        }
    }

    /// Cumulative distribution function `P(X <= x)`.
    ///
    /// A binary search over the support plus one prefix-sum lookup —
    /// `O(log n)` rather than a linear accumulation, so repeated deadline
    /// queries against a cached response-time pmf stay cheap.
    ///
    /// An empty pmf returns 0 for every `x` ("no information recorded yet"),
    /// which makes a replica with no history look unable to meet any
    /// deadline; the selection algorithm then keeps adding replicas, which is
    /// the conservative behaviour we want during warm-up.
    pub fn cdf(&self, x: u64) -> f64 {
        let idx = self.points.partition_point(|&(v, _)| v <= x);
        if idx == 0 {
            0.0
        } else {
            self.cum[idx - 1].min(1.0)
        }
    }

    /// Mean of the distribution, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(v, p)| v as f64 * p).sum())
        }
    }

    /// Discrete convolution with another pmf: the distribution of the sum of
    /// two independent samples.
    ///
    /// Convolving with an empty pmf yields an empty pmf (the sum of an
    /// unknown quantity is unknown).
    pub fn convolve(&self, other: &Pmf) -> Pmf {
        self.convolve_upto(other, u64::MAX).0
    }

    /// The convolution with `other` restricted to sums `<= limit`, plus the
    /// frontier `complete` up to which the result is exact.
    ///
    /// The returned pmf holds exactly the points of [`Self::convolve`] at
    /// or below `limit`, with bit-identical probabilities, so its `cdf(x)`
    /// equals the full convolution's for every `x <= complete`. `complete`
    /// is one below the smallest sum the merge did not reach (the full
    /// convolution has no point in `(limit, complete]`), or `u64::MAX` when
    /// the merge ran out. A caller that only reads the CDF at a deadline —
    /// Algorithm 1 reads `F^D_Ri(d)` and nothing else — never pays for the
    /// tail of the distribution past it.
    pub fn convolve_upto(&self, other: &Pmf, limit: u64) -> (Pmf, u64) {
        if self.is_empty() || other.is_empty() {
            return (Pmf::with_points(Vec::new()), u64::MAX);
        }
        // Row `i` of the product grid — `(v1_i + v2_j, p1_i * p2_j)` for
        // `j` in `0..l2` — is sorted by sum because `other.points` is
        // sorted, and so is every column. A k-way merge over whichever side
        // is shorter (one heap entry per row, streaming along its columns,
        // or one per column, streaming down its rows) emits sums in order
        // without materializing the `l1 * l2` pair table. Every stream is
        // sorted by the heap key `(sum, row, col)`, so pairs pop in the
        // same `(sum, row, col)` order either way: equal sums accumulate
        // row-major, the generation order of the `BTreeMap` accumulator the
        // merge replaced — bit-identical probabilities. This is the hottest
        // function of the whole evaluation pipeline (response-time model
        // rebuilds).
        let rows = &self.points;
        let cols = &other.points;
        let by_col = cols.len() < rows.len();
        let pair_sum = |i: usize, j: usize| rows[i].0.saturating_add(cols[j].0);
        let first_of = |k: usize| if by_col { (0, k) } else { (k, 0) };
        let streams = if by_col { cols.len() } else { rows.len() };
        // Streams are seeded in increasing order of their first sum; those
        // starting past `limit` are never merged, and the first of them
        // bounds the frontier.
        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::with_capacity(streams);
        let mut complete = u64::MAX;
        for k in 0..streams {
            let (i, j) = first_of(k);
            let sum = pair_sum(i, j);
            if sum > limit {
                complete = sum - 1;
                break;
            }
            heap.push(Reverse((sum, i, j)));
        }
        let mut points: Vec<(u64, f64)> =
            Vec::with_capacity((rows.len() * cols.len()).min(CONVOLVE_RESERVE_CAP));
        // Replace-top (`peek_mut`) instead of pop+push: one sift per emitted
        // term instead of two, and a term whose stream successor is still
        // the minimum costs only the comparison against its children.
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((sum, i, j)) = *top;
            if sum > limit {
                complete = complete.min(sum - 1);
                break;
            }
            let p = rows[i].1 * cols[j].1;
            match points.last_mut() {
                Some(last) if last.0 == sum => last.1 += p,
                _ => points.push((sum, p)),
            }
            let (i, j) = if by_col { (i + 1, j) } else { (i, j + 1) };
            if i < rows.len() && j < cols.len() {
                *top = Reverse((pair_sum(i, j), i, j));
                // `top` drops here and sifts the replaced entry down.
            } else {
                std::collections::binary_heap::PeekMut::pop(top);
            }
        }
        (Pmf::with_points(points), complete)
    }

    /// Shifts the distribution right by a constant (convolution with a point
    /// mass at `offset`).
    pub fn shift(&self, offset: u64) -> Pmf {
        Pmf::with_points(
            self.points
                .iter()
                .map(|&(v, p)| (v.saturating_add(offset), p))
                .collect(),
        )
    }

    /// Re-bins the support onto multiples of `bin` (rounding up), merging
    /// probabilities that land in the same bin.
    ///
    /// Binning bounds the support growth of repeated convolutions. Rounding
    /// up makes the binned CDF a lower bound of the true CDF, so selection
    /// decisions based on binned distributions stay conservative.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn binned(&self, bin: u64) -> Pmf {
        assert!(bin > 0, "bin width must be positive");
        // The support is sorted, and rounding up to a bin boundary is
        // monotone, so the binned keys come out already sorted: merge runs
        // directly, accumulating in support order (the same order a map
        // accumulator would add them).
        let mut points: Vec<(u64, f64)> = Vec::new();
        for &(v, p) in &self.points {
            let b = v.div_ceil(bin).saturating_mul(bin);
            match points.last_mut() {
                Some(last) if last.0 == b => last.1 += p,
                _ => points.push((b, p)),
            }
        }
        Pmf::with_points(points)
    }

    /// Total probability mass (1 for non-empty pmfs, up to rounding).
    pub fn total_mass(&self) -> f64 {
        self.points.iter().map(|&(_, p)| p).sum()
    }
}

/// Error returned by [`Pmf::from_points`].
#[derive(Debug, Clone, PartialEq)]
pub enum PmfError {
    /// A probability was negative, NaN, or infinite.
    InvalidProbability,
    /// The probabilities of a non-empty pmf did not sum to 1.
    NotNormalized {
        /// The observed total mass.
        total: f64,
    },
}

impl std::fmt::Display for PmfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmfError::InvalidProbability => write!(f, "probability was negative or not finite"),
            PmfError::NotNormalized { total } => {
                write!(f, "probabilities sum to {total}, expected 1")
            }
        }
    }
}

impl std::error::Error for PmfError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    /// The accumulation strategy the flat-vector paths replaced; kept as a
    /// test oracle for the bit-identity proofs below.
    fn convolve_btree_reference(a: &Pmf, b: &Pmf) -> Vec<(u64, f64)> {
        let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
        for (v1, p1) in a.iter() {
            for (v2, p2) in b.iter() {
                *acc.entry(v1.saturating_add(v2)).or_insert(0.0) += p1 * p2;
            }
        }
        acc.into_iter().collect()
    }

    fn binned_btree_reference(pmf: &Pmf, bin: u64) -> Vec<(u64, f64)> {
        let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
        for (v, p) in pmf.iter() {
            *acc.entry(v.div_ceil(bin).saturating_mul(bin))
                .or_insert(0.0) += p;
        }
        acc.into_iter().collect()
    }

    fn from_samples_btree_reference(samples: &[u64]) -> Vec<(u64, f64)> {
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &s in samples {
            *counts.entry(s).or_insert(0) += 1;
        }
        let n = samples.len() as f64;
        counts.into_iter().map(|(v, c)| (v, c as f64 / n)).collect()
    }

    /// Reads `(high, x)` as a small sample value `x` (duplicates likely) or,
    /// when `high`, one close enough to `u64::MAX` that sums saturate.
    fn near_edge((high, x): (bool, u64)) -> u64 {
        if high {
            u64::MAX - x
        } else {
            x
        }
    }

    fn assert_bit_identical(actual: &Pmf, expected: &[(u64, f64)]) {
        assert_eq!(actual.support_len(), expected.len());
        for ((va, pa), &(ve, pe)) in actual.iter().zip(expected) {
            assert_eq!(va, ve);
            assert_eq!(pa.to_bits(), pe.to_bits(), "probability at {va} differs");
        }
    }

    #[test]
    fn from_samples_relative_frequency() {
        let pmf = Pmf::from_samples([5u64, 5, 5, 7].into_iter());
        assert_close(pmf.probability(5), 0.75);
        assert_close(pmf.probability(7), 0.25);
        assert_close(pmf.probability(6), 0.0);
        assert_eq!(pmf.support_len(), 2);
    }

    #[test]
    fn empty_pmf_behaviour() {
        let pmf = Pmf::from_samples(std::iter::empty());
        assert!(pmf.is_empty());
        assert_eq!(pmf.cdf(u64::MAX), 0.0);
        assert_eq!(pmf.mean(), None);
        assert!(pmf.convolve(&Pmf::point_mass(3)).is_empty());
    }

    #[test]
    fn cdf_steps() {
        let pmf = Pmf::from_samples([10u64, 20].into_iter());
        assert_close(pmf.cdf(9), 0.0);
        assert_close(pmf.cdf(10), 0.5);
        assert_close(pmf.cdf(19), 0.5);
        assert_close(pmf.cdf(20), 1.0);
        assert_close(pmf.cdf(u64::MAX), 1.0);
    }

    #[test]
    fn point_mass_is_degenerate() {
        let pmf = Pmf::point_mass(42);
        assert_close(pmf.probability(42), 1.0);
        assert_close(pmf.cdf(41), 0.0);
        assert_close(pmf.cdf(42), 1.0);
        assert_eq!(pmf.mean(), Some(42.0));
    }

    #[test]
    fn convolution_of_two_coins() {
        // {0, 1} uniform + {0, 1} uniform = {0: .25, 1: .5, 2: .25}
        let a = Pmf::from_samples([0u64, 1].into_iter());
        let b = Pmf::from_samples([0u64, 1].into_iter());
        let c = a.convolve(&b);
        assert_close(c.probability(0), 0.25);
        assert_close(c.probability(1), 0.5);
        assert_close(c.probability(2), 0.25);
        assert_close(c.total_mass(), 1.0);
    }

    #[test]
    fn convolution_with_point_mass_is_shift() {
        let a = Pmf::from_samples([3u64, 9, 9].into_iter());
        let shifted = a.convolve(&Pmf::point_mass(100));
        assert_eq!(shifted, a.shift(100));
    }

    #[test]
    fn convolution_mean_is_sum_of_means() {
        let a = Pmf::from_samples([1u64, 2, 3].into_iter());
        let b = Pmf::from_samples([10u64, 20].into_iter());
        let c = a.convolve(&b);
        assert_close(c.mean().unwrap(), a.mean().unwrap() + b.mean().unwrap());
    }

    #[test]
    fn binned_rounds_up_and_conserves_mass() {
        let pmf = Pmf::from_samples([1u64, 999, 1000, 1001].into_iter());
        let binned = pmf.binned(1000);
        assert_close(binned.probability(1000), 0.75);
        assert_close(binned.probability(2000), 0.25);
        assert_close(binned.total_mass(), 1.0);
    }

    #[test]
    fn binned_cdf_is_lower_bound() {
        let pmf = Pmf::from_samples([1u64, 500, 1500].into_iter());
        let binned = pmf.binned(1000);
        for x in [0u64, 1, 500, 999, 1000, 1500, 2000] {
            assert!(binned.cdf(x) <= pmf.cdf(x) + 1e-12);
        }
    }

    #[test]
    fn from_points_rejects_bad_probabilities() {
        assert_eq!(
            Pmf::from_points(vec![(1, -0.5), (2, 1.5)]),
            Err(PmfError::InvalidProbability)
        );
        assert!(matches!(
            Pmf::from_points(vec![(1, 0.3), (2, 0.3)]),
            Err(PmfError::NotNormalized { .. })
        ));
    }

    #[test]
    fn from_points_merges_duplicates() {
        let pmf = Pmf::from_points(vec![(5, 0.25), (5, 0.25), (6, 0.5)]).unwrap();
        assert_close(pmf.probability(5), 0.5);
        assert_eq!(pmf.support_len(), 2);
    }

    #[test]
    fn from_points_renormalizes_drift() {
        // Off by 5e-7: accepted, then renormalized back onto mass 1 (to
        // within one ulp of the division) instead of carrying the drift.
        let pmf = Pmf::from_points(vec![(1, 0.5), (2, 0.5 - 5e-7)]).unwrap();
        assert!((pmf.total_mass() - 1.0).abs() < 1e-15);
        assert!((pmf.cdf(2) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn saturating_convolution_does_not_overflow() {
        let a = Pmf::point_mass(u64::MAX - 1);
        let b = Pmf::point_mass(10);
        let c = a.convolve(&b);
        assert_close(c.probability(u64::MAX), 1.0);
    }

    proptest! {
        #[test]
        fn cdf_monotone(samples in proptest::collection::vec(0u64..10_000, 1..64)) {
            let pmf = Pmf::from_samples(samples.into_iter());
            let mut prev = 0.0f64;
            for x in (0..12_000u64).step_by(37) {
                let c = pmf.cdf(x);
                prop_assert!(c + 1e-12 >= prev);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
                prev = c;
            }
        }

        #[test]
        fn convolution_mass_conserved(
            a in proptest::collection::vec(0u64..1000, 1..32),
            b in proptest::collection::vec(0u64..1000, 1..32),
        ) {
            let pa = Pmf::from_samples(a.into_iter());
            let pb = Pmf::from_samples(b.into_iter());
            let c = pa.convolve(&pb);
            prop_assert!((c.total_mass() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn convolution_commutes(
            a in proptest::collection::vec(0u64..1000, 1..24),
            b in proptest::collection::vec(0u64..1000, 1..24),
        ) {
            let pa = Pmf::from_samples(a.into_iter());
            let pb = Pmf::from_samples(b.into_iter());
            let ab = pa.convolve(&pb);
            let ba = pb.convolve(&pa);
            prop_assert_eq!(ab.support_len(), ba.support_len());
            for ((v1, p1), (v2, p2)) in ab.iter().zip(ba.iter()) {
                prop_assert_eq!(v1, v2);
                prop_assert!((p1 - p2).abs() < 1e-12);
            }
        }

        #[test]
        fn convolve_bit_identical_to_btree_accumulator(
            a in proptest::collection::vec(0u64..5_000, 1..40),
            b in proptest::collection::vec(0u64..5_000, 1..40),
        ) {
            // Duplicated sample values produce repeated sums, exercising the
            // per-key accumulation order the stable sort must preserve.
            let pa = Pmf::from_samples(a.into_iter());
            let pb = Pmf::from_samples(b.into_iter());
            let expected = convolve_btree_reference(&pa, &pb);
            assert_bit_identical(&pa.convolve(&pb), &expected);
        }

        #[test]
        fn convolve_upto_exact_up_to_its_frontier(
            a in proptest::collection::vec((any::<bool>(), 0u64..5_000), 1..40),
            b in proptest::collection::vec((any::<bool>(), 0u64..5_000), 1..40),
            limit in (0u8..3, 0u64..12_000),
            bin in 1u64..3_000,
        ) {
            // Duplicated sample values produce repeated sums, and values
            // near `u64::MAX` pile saturated sums onto the last point.
            let pa = Pmf::from_samples(a.into_iter().map(near_edge));
            let pb = Pmf::from_samples(b.into_iter().map(near_edge));
            let limit = match limit {
                (0, x) => x,
                (1, x) => u64::MAX - x,
                _ => u64::MAX,
            };
            let full = pa.convolve(&pb);
            let (upto, complete) = pa.convolve_upto(&pb, limit);
            prop_assert!(complete >= limit);
            // The frontier is exact: nothing in `(limit, complete]`, and the
            // next point sits right past it.
            prop_assert!(full.iter().all(|(v, _)| v <= limit || v > complete));
            if complete != u64::MAX {
                prop_assert!(full.iter().any(|(v, _)| v == complete + 1));
            }
            let below: Vec<(u64, f64)> = full.iter().filter(|&(v, _)| v <= limit).collect();
            assert_bit_identical(&upto, &below);
            // The CDF is a step function, so its value at every `x <=
            // complete` is one of the values at the support points below
            // `complete`, just before them, or at `complete` itself.
            for (truncated, reference) in [
                (upto.clone(), full.clone()),
                (upto.binned(bin), full.binned(bin)),
            ] {
                let xs = reference
                    .iter()
                    .flat_map(|(v, _)| [v.saturating_sub(1), v])
                    .chain([0, limit, complete])
                    .filter(|&x| x <= complete);
                for x in xs {
                    prop_assert_eq!(truncated.cdf(x).to_bits(), reference.cdf(x).to_bits(), "cdf({}) differs", x);
                }
            }
        }

        #[test]
        fn binned_bit_identical_to_btree_accumulator(
            samples in proptest::collection::vec(0u64..50_000, 1..64),
            bin in 1u64..3_000,
        ) {
            let pmf = Pmf::from_samples(samples.into_iter());
            let expected = binned_btree_reference(&pmf, bin);
            assert_bit_identical(&pmf.binned(bin), &expected);
        }

        #[test]
        fn from_samples_bit_identical_to_btree_counter(
            samples in proptest::collection::vec(0u64..200, 1..64),
        ) {
            let expected = from_samples_btree_reference(&samples);
            assert_bit_identical(&Pmf::from_samples(samples.into_iter()), &expected);
        }

        #[test]
        fn binning_conserves_mass(samples in proptest::collection::vec(0u64..100_000, 1..64), bin in 1u64..5000) {
            let pmf = Pmf::from_samples(samples.into_iter());
            let binned = pmf.binned(bin);
            prop_assert!((binned.total_mass() - pmf.total_mass()).abs() < 1e-9);
        }

        #[test]
        fn cdf_matches_linear_accumulation(
            samples in proptest::collection::vec(0u64..10_000, 1..64),
            queries in proptest::collection::vec(0u64..12_000, 1..32),
        ) {
            // The prefix-sum binary search must agree bit-for-bit with the
            // naive left-to-right accumulation it replaced.
            let pmf = Pmf::from_samples(samples.into_iter());
            for x in queries {
                let mut acc = 0.0f64;
                for (v, p) in pmf.iter() {
                    if v > x {
                        break;
                    }
                    acc += p;
                }
                prop_assert_eq!(pmf.cdf(x), acc.min(1.0));
            }
        }

        #[test]
        fn renormalized_mass_stable_under_chained_convolve(
            weights in proptest::collection::vec((0u64..2_000, 1u32..1000), 2..12),
            rounds in 1usize..5,
        ) {
            // Feed from_points probabilities that are deliberately off by up
            // to ~1e-6 (rounded to 6 decimal places), then convolve the
            // result with itself repeatedly: renormalization at construction
            // must keep the total mass pinned to 1 instead of letting the
            // drift compound exponentially in the number of convolutions.
            let total: u32 = weights.iter().map(|&(_, w)| w).sum();
            let pairs: Vec<(u64, f64)> = weights
                .iter()
                .map(|&(v, w)| {
                    let p = w as f64 / total as f64;
                    (v, (p * 1e7).round() / 1e7) // inject rounding drift
                })
                .collect();
            // <= 12 entries each off by <= 5e-8: total drift stays within
            // the 1e-6 acceptance band.
            let drifted_total: f64 = pairs.iter().map(|&(_, p)| p).sum();
            prop_assert!((drifted_total - 1.0).abs() <= 1e-6);
            let pmf = Pmf::from_points(pairs).unwrap();
            prop_assert!((pmf.total_mass() - 1.0).abs() < 1e-12);
            let mut chained = pmf.clone();
            for _ in 0..rounds {
                chained = chained.convolve(&pmf);
                prop_assert!(
                    (chained.total_mass() - 1.0).abs() < 1e-9,
                    "mass drifted to {}",
                    chained.total_mass()
                );
            }
        }
    }
}
