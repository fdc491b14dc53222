//! Statistics collection for experiment harnesses.
//!
//! Three collectors cover everything the reproduction measures:
//!
//! * [`Summary`] — streaming mean/variance/min/max via the one-pass update
//!   of Knuth, TAOCP vol. 2 §4.2.2 (numerically stable, O(1) memory),
//! * [`Histogram`] — fixed-width bins with quantile estimation, used for
//!   latency distributions,
//! * [`RateMeter`] — event counts over simulated time windows, used for
//!   throughput series.
//!
//! All collectors are plain values (no interior mutability); parallel sweeps
//! give each run its own collectors and merge afterwards, which is both the
//! idiomatic structured-concurrency shape and the fastest one (no shared
//! cache lines on the hot path).

use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// Streaming summary statistics (one-pass mean and variance).
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

// A derived `Default` would zero `min`/`max`, whereas the sentinels must be
// ±INFINITY for `record` to work; structs that `#[derive(Default)]` around a
// `Summary` (NetStats, ExecReport) depend on this delegating to `new()`.
impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a simulated duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator; 0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of a 95% confidence interval for the mean, using the
    /// Student-t critical value for `n−1` degrees of freedom.
    ///
    /// The normal z=1.96 understates the interval badly at the sample
    /// counts some experiment cells actually have (t is 12.7 at n=2,
    /// 2.78 at n=5); z is only the n→∞ asymptote. With fewer than two
    /// samples no spread is estimable at all, so this returns `None`
    /// rather than a spurious 0 — and never NaN.
    pub fn ci95_half_width(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        Some(t_critical_95(self.count - 1) * self.std_err())
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merge another summary into this one (parallel-sweep reduction).
    ///
    /// Uses the Chan et al. pairwise update, so merging is equivalent to
    /// having recorded every observation into a single summary.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
///
/// Exact table for df ≤ 30, linear interpolation between the standard
/// anchors at 40/60/120, and the normal z beyond — the usual printed
/// t-table, which is accurate to the three digits anyone reads off a
/// confidence interval.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    const ANCHORS: [(u64, f64); 4] = [(30, 2.042), (40, 2.021), (60, 2.000), (120, 1.980)];
    match df {
        0 => f64::INFINITY, // no spread estimable from one sample
        1..=30 => TABLE[(df - 1) as usize],
        31..=120 => {
            let (mut lo, mut lo_t, mut hi, mut hi_t) = (30, 2.042, 120, 1.980);
            for w in ANCHORS.windows(2) {
                if df >= w[0].0 && df <= w[1].0 {
                    (lo, lo_t, hi, hi_t) = (w[0].0, w[0].1, w[1].0, w[1].1);
                }
            }
            lo_t + (hi_t - lo_t) * (df - lo) as f64 / (hi - lo) as f64
        }
        _ => 1.96,
    }
}

/// Fixed-width-bin histogram over `[lo, hi)` with under/overflow bins and
/// an explicit NaN counter (a NaN sample is a measurement bug upstream; it
/// must be visible, not silently filed in bin 0).
#[derive(Clone, Debug, Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    nan: u64,
    count: u64,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `nbins` equal-width bins.
    ///
    /// Panics if `nbins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            nan: 0,
            count: 0,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x.is_nan() {
            // NaN fails both range tests below and `as usize` saturates it
            // to 0 — which used to count it in bin 0 as a plausible small
            // sample. Track it separately instead.
            self.nan += 1;
        } else if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Lower range bound (inclusive).
    pub(crate) fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper range bound (exclusive).
    pub(crate) fn hi(&self) -> f64 {
        self.hi
    }

    /// Total observations including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// NaN observations (excluded from every quantile).
    pub fn nan(&self) -> u64 {
        self.nan
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Approximate `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation within
    /// the containing bin. Underflow counts toward `lo`, overflow toward
    /// `hi`. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let numeric = self.count - self.nan;
        if numeric == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * numeric as f64;
        let mut cum = self.underflow as f64;
        if target <= cum {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &b) in self.bins.iter().enumerate() {
            let next = cum + b as f64;
            if target <= next && b > 0 {
                let within = (target - cum) / b as f64;
                return Some(self.lo + width * (i as f64 + within));
            }
            cum = next;
        }
        Some(self.hi)
    }

    /// Merge another histogram with identical geometry.
    ///
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        // Exact comparison on purpose: merge partners share a constructor, so
        // their bounds are bit-identical, and an absolute-epsilon test would
        // false-accept distinct large ranges (1e9 vs 1e9 + 100).
        assert!(
            self.lo == other.lo && self.hi == other.hi,
            "range mismatch"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.nan += other.nan;
        self.count += other.count;
    }
}

/// Counts events against the simulated clock and reports rates.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RateMeter {
    events: u64,
    units: f64,
    started: Option<SimTime>,
    last: Option<SimTime>,
}

impl RateMeter {
    /// Fresh meter; the window opens at the first recorded event (or at an
    /// explicit [`RateMeter::open_at`]).
    pub fn new() -> Self {
        RateMeter::default()
    }

    /// Open the measurement window at `t` without recording an event.
    pub fn open_at(&mut self, t: SimTime) {
        if self.started.is_none() {
            self.started = Some(t);
            self.last = Some(t);
        }
    }

    /// Record one event of `units` size (bytes, frames, …) at time `t`.
    pub fn record(&mut self, t: SimTime, units: f64) {
        self.open_at(t);
        self.events += 1;
        self.units += units;
        if Some(t) > self.last {
            self.last = Some(t);
        }
    }

    /// Number of events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Sum of recorded unit sizes.
    pub fn units(&self) -> f64 {
        self.units
    }

    /// Window length from open to the last event (zero if unopened).
    pub fn window(&self) -> SimDuration {
        match (self.started, self.last) {
            (Some(s), Some(l)) => l.saturating_since(s),
            _ => SimDuration::ZERO,
        }
    }

    /// Units per second over an explicit horizon.
    pub fn rate_over(&self, horizon: SimDuration) -> f64 {
        let secs = horizon.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.units / secs
        }
    }

    /// Units per second over the observed window.
    pub fn rate(&self) -> f64 {
        self.rate_over(self.window())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.ci95_half_width(), None);
    }

    #[test]
    fn ci95_uses_student_t_not_z() {
        // n=2 (df=1): t = 12.706, more than six times the normal z.
        let mut s = Summary::new();
        s.record(0.0);
        s.record(2.0);
        // std_err = sqrt(2)/sqrt(2) = 1.0
        let hw = s.ci95_half_width().unwrap();
        assert!((hw - 12.706).abs() < 1e-9, "df=1 half-width {hw}");

        // n=5 (df=4): t = 2.776.
        let mut s5 = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s5.record(x);
        }
        let expect = 2.776 * s5.std_err();
        let hw5 = s5.ci95_half_width().unwrap();
        assert!((hw5 - expect).abs() < 1e-12, "df=4 half-width {hw5}");
    }

    #[test]
    fn ci95_is_none_below_two_samples_and_never_nan() {
        let mut s = Summary::new();
        assert_eq!(s.ci95_half_width(), None);
        s.record(7.0);
        // A single sample used to yield 1.96 * 0.0 = 0.0, a fake
        // zero-width interval; now it is honestly indeterminate.
        assert_eq!(s.ci95_half_width(), None);
        s.record(7.0);
        let hw = s.ci95_half_width().unwrap();
        assert!(!hw.is_nan());
        assert_eq!(hw, 0.0, "identical samples: zero spread, not NaN");
    }

    #[test]
    fn t_critical_table_and_asymptote() {
        assert_eq!(t_critical_95(1), 12.706);
        assert_eq!(t_critical_95(4), 2.776);
        assert_eq!(t_critical_95(30), 2.042);
        // Interpolated region is monotone decreasing toward z.
        let mut prev = t_critical_95(30);
        for df in 31..=120 {
            let t = t_critical_95(df);
            assert!(t <= prev && t >= 1.96, "df={df} t={t}");
            prev = t;
        }
        assert_eq!(t_critical_95(120), 1.980);
        assert_eq!(t_critical_95(10_000), 1.96);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_default_matches_new() {
        // Regression: a derived Default zeroed min/max, so the first sample
        // could never replace them and all-positive data reported min 0.0.
        let mut s = Summary::default();
        s.record(5.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
        let empty = Summary::default();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn summary_merge_with_empty_sides() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let empty = Summary::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0); // underflow
        h.record(0.0); // first bin
        h.record(9.999); // last bin
        h.record(10.0); // overflow (half-open range)
        h.record(5.0);
        assert_eq!(h.count(), 5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.bins()[5], 1);
    }

    #[test]
    fn histogram_quantiles_bracket_median() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() < 2.0, "median {med}");
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert!(h.quantile(1.0).unwrap() >= 99.0);
    }

    #[test]
    fn histogram_quantile_empty_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        b.record(1.0);
        b.record(11.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bins()[0], 2);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    fn histogram_nan_is_counted_not_binned() {
        // Regression: NaN fails both range tests, and `as usize` saturates
        // NaN to 0, so NaN samples used to masquerade as bin-0 entries.
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(f64::NAN);
        h.record(1.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.nan(), 1);
        assert_eq!(h.bins()[0], 1, "only the real sample lands in bin 0");
        assert_eq!(h.underflow(), 0);
        // Quantiles are over numeric samples only: the median of {1.0}.
        let med = h.quantile(0.5).unwrap();
        assert!((0.0..2.0).contains(&med), "median {med}");

        let mut all_nan = Histogram::new(0.0, 10.0, 5);
        all_nan.record(f64::NAN);
        assert_eq!(all_nan.quantile(0.5), None);

        let mut other = Histogram::new(0.0, 10.0, 5);
        other.record(f64::NAN);
        h.merge(&other);
        assert_eq!(h.nan(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn histogram_merge_rejects_mismatched() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "range mismatch")]
    fn histogram_merge_rejects_distinct_ranges_exactly() {
        // The bounds differ by less than f64::EPSILON in absolute terms, so
        // the old fuzzy comparison silently merged histograms with different
        // geometry; exact equality must reject them.
        let mut a = Histogram::new(0.0, 1.0, 5);
        let b = Histogram::new(1e-17, 1.0, 5);
        a.merge(&b);
    }

    #[test]
    fn rate_meter_measures_units_per_second() {
        let mut m = RateMeter::new();
        m.record(SimTime::from_nanos(0), 100.0);
        m.record(SimTime::ZERO + SimDuration::from_secs(2), 300.0);
        assert_eq!(m.events(), 2);
        assert!((m.rate() - 200.0).abs() < 1e-9); // 400 units / 2 s
    }

    #[test]
    fn rate_meter_explicit_horizon() {
        let mut m = RateMeter::new();
        m.open_at(SimTime::ZERO);
        m.record(SimTime::ZERO + SimDuration::from_millis(10), 50.0);
        assert!((m.rate_over(SimDuration::from_secs(10)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rate_meter_degenerate_window_is_zero() {
        let mut m = RateMeter::new();
        m.record(SimTime::from_nanos(5), 10.0);
        assert_eq!(m.rate(), 0.0); // zero-length window
        assert_eq!(RateMeter::new().rate(), 0.0); // never opened
    }
}
