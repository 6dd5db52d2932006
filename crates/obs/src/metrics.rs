//! The metrics registry: named counters, gauges and log-linear quantile
//! histograms, sharded per thread.
//!
//! This is the unification point for the numbers the workspace used to
//! scatter across `DijkstraStats` (ear-graph), `WorkCounters`
//! (ear-hetero) and `PhaseTrace`/`PhaseProfile` (ear-mcb): the producing
//! layers publish into this registry under the dotted names catalogued in
//! `DESIGN.md`, and consumers (the CLI `--profile` table, the bench
//! report JSON, the `--metrics-out` snapshot, the `--metrics-stream`
//! exporter) all read one source.
//!
//! ## Sharding
//!
//! Writes go to a *per-thread* shard (a `BTreeMap` behind that thread's
//! own, uncontended mutex), registered once in a process-wide list —
//! the same scheme the span collector uses for its ring buffers. The
//! global registry lock is taken only by readers ([`snapshot`],
//! [`counter_value`], [`gauge_value`]) and by [`reset`](crate::reset),
//! never on the recording path, so concurrent workers (the rayon shim's
//! scoped threads, the streaming exporter, the sampling profiler) no
//! longer serialise on one mutex per `counter_add`.
//!
//! Fold semantics at snapshot time: counters **sum** across shards,
//! histograms **merge** bucket-wise, and gauges resolve last-write-wins
//! through a process-wide sequence number stamped at `gauge_set` time.
//!
//! Like the tracer, every mutation is gated on [`crate::is_enabled`] so
//! the disabled path is one relaxed load and zero allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// log₂ of the number of linear sub-buckets per power-of-two range.
pub const HIST_SUB_BITS: u32 = 5;

/// Linear sub-buckets per power-of-two range (HDR-style log-linear
/// bucketing). Quantile estimates are exact below [`HIST_SUB`] and carry
/// at most one sub-bucket (`1/HIST_SUB` ≈ 3.1%) of relative error above.
pub const HIST_SUB: u64 = 1 << HIST_SUB_BITS;

/// Total bucket count covering the full `u64` range: values below
/// `2·HIST_SUB` get exact unit buckets, and each further power of two is
/// split into `HIST_SUB` linear sub-buckets.
pub const HIST_BUCKETS: usize = ((65 - HIST_SUB_BITS) as usize) << HIST_SUB_BITS;

/// A log-linear (HDR-style) histogram of `u64` samples with bounded
/// relative error.
///
/// Values below [`HIST_SUB`] land in exact unit buckets; a value `v ≥
/// HIST_SUB` keeps its top `HIST_SUB_BITS + 1` significant bits, so every
/// bucket spans at most a `1/HIST_SUB` fraction of its lower bound. That
/// makes [`Histogram::quantile`] (and the `p50`/`p90`/`p99`/`p999`
/// accessors) exact to within one sub-bucket of relative error — the
/// property the unit tests check against exact quantiles on synthetic
/// distributions.
///
/// The bucket array is allocated lazily on first record (one allocation
/// per `(thread, name)` pair for registry histograms) and merged
/// bucket-wise across shards at snapshot time.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// `buckets[bucket_index(v)]` counts samples equivalent to `v`.
    /// Empty until the first record; [`HIST_BUCKETS`] long afterwards.
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }
}

/// Maps a sample to its log-linear bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < HIST_SUB {
        return v as usize;
    }
    // `v` has bit length >= HIST_SUB_BITS + 1; keep the top
    // HIST_SUB_BITS + 1 bits as the mantissa (in [HIST_SUB, 2·HIST_SUB)).
    let exp = 63 - HIST_SUB_BITS - v.leading_zeros();
    let mantissa = v >> exp;
    ((exp as u64) << HIST_SUB_BITS) as usize + mantissa as usize
}

/// Inclusive value range `[lo, hi]` covered by bucket `i` — the inverse
/// of [`bucket_index`]. Exported alongside counts in the metrics JSON so
/// external tools can reconstruct distributions without hardcoding the
/// bucketing scheme.
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < (2 * HIST_SUB) as usize {
        return (i as u64, i as u64);
    }
    let exp = (i as u32 >> HIST_SUB_BITS) - 1;
    let mantissa = (i as u64) - ((exp as u64) << HIST_SUB_BITS);
    let lo = mantissa << exp;
    let hi = lo + ((1u64 << exp) - 1);
    (lo, hi)
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        self.buckets[bucket_index(v)] += 1;
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one (cross-thread merge: counts
    /// add bucket-wise, min/max/sum combine exactly).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.is_empty() {
            self.buckets = other.buckets.clone();
        } else {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) estimated from the buckets: the
    /// upper bound of the bucket containing the sample of rank
    /// `ceil(q·count)`. Exact for values below [`HIST_SUB`]; at most one
    /// sub-bucket (`1/HIST_SUB`) of relative error above. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to the observed extremes so p0/p100 stay exact
                // and a one-sample histogram reports the sample itself.
                return bucket_bounds(i).1.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, low to high — the
    /// serialization form used by the metrics JSON.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

/// One thread's private slice of the registry. Gauges carry the global
/// write sequence so the fold can resolve last-write-wins.
#[derive(Default)]
struct Shard {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, (u64, f64)>,
    histograms: BTreeMap<&'static str, Histogram>,
}

fn shards() -> &'static Mutex<Vec<Arc<Mutex<Shard>>>> {
    static R: OnceLock<Mutex<Vec<Arc<Mutex<Shard>>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

/// Process-wide gauge write sequence (monotone; ties impossible).
static GAUGE_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Arc<Mutex<Shard>> = register_shard();
}

fn register_shard() -> Arc<Mutex<Shard>> {
    let shard = Arc::new(Mutex::new(Shard::default()));
    shards().lock().unwrap().push(Arc::clone(&shard));
    shard
}

#[inline]
fn with_shard(f: impl FnOnce(&mut Shard)) {
    LOCAL.with(|s| f(&mut s.lock().unwrap()));
}

/// Add `delta` to the counter `name` (created at 0 on first use).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !crate::is_enabled() {
        return;
    }
    with_shard(|s| *s.counters.entry(name).or_insert(0) += delta);
}

/// Set the gauge `name` to `value` (last write wins, resolved across
/// shards through a process-wide write sequence).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !crate::is_enabled() {
        return;
    }
    let seq = GAUGE_SEQ.fetch_add(1, Ordering::Relaxed);
    with_shard(|s| {
        s.gauges.insert(name, (seq, value));
    });
}

/// Record one sample into the histogram `name`.
#[inline]
pub fn histogram_record(name: &'static str, value: u64) {
    if !crate::is_enabled() {
        return;
    }
    with_shard(|s| s.histograms.entry(name).or_default().record(value));
}

/// Current value of a counter (0 if never written), folded across all
/// thread shards. Reads are not gated on the enabled flag so consumers
/// can inspect a frozen registry.
pub fn counter_value(name: &str) -> u64 {
    let mut total = 0u64;
    for shard in shards().lock().unwrap().iter() {
        if let Some(v) = shard.lock().unwrap().counters.get(name) {
            total += v;
        }
    }
    total
}

/// Current value of a gauge (`None` if never written): the most recent
/// write across all shards.
pub fn gauge_value(name: &str) -> Option<f64> {
    let mut best: Option<(u64, f64)> = None;
    for shard in shards().lock().unwrap().iter() {
        if let Some(&(seq, v)) = shard.lock().unwrap().gauges.get(name) {
            if best.map(|(bs, _)| seq > bs).unwrap_or(true) {
                best = Some((seq, v));
            }
        }
    }
    best.map(|(_, v)| v)
}

/// A frozen copy of the whole registry, folded across shards and sorted
/// by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All counters, name-sorted, summed across threads.
    pub counters: Vec<(String, u64)>,
    /// All gauges, name-sorted, last-write-wins across threads.
    pub gauges: Vec<(String, f64)>,
    /// All histograms, name-sorted, merged across threads.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Gauge by name (`None` if absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Freeze the registry into a [`MetricsSnapshot`]: counters sum, gauges
/// resolve by write sequence, histograms merge bucket-wise.
pub fn snapshot() -> MetricsSnapshot {
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    let mut histograms: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for shard in shards().lock().unwrap().iter() {
        let s = shard.lock().unwrap();
        for (&n, &v) in &s.counters {
            *counters.entry(n).or_insert(0) += v;
        }
        for (&n, &(seq, v)) in &s.gauges {
            let e = gauges.entry(n).or_insert((seq, v));
            if seq >= e.0 {
                *e = (seq, v);
            }
        }
        for (&n, h) in &s.histograms {
            histograms.entry(n).or_default().merge(h);
        }
    }
    MetricsSnapshot {
        counters: counters
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        gauges: gauges
            .into_iter()
            .map(|(n, (_, v))| (n.to_string(), v))
            .collect(),
        histograms: histograms
            .into_iter()
            .map(|(n, h)| (n.to_string(), h))
            .collect(),
    }
}

pub(crate) fn reset() {
    for shard in shards().lock().unwrap().iter() {
        let mut s = shard.lock().unwrap();
        s.counters.clear();
        s.gauges.clear();
        s.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_obs<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap();
        crate::reset();
        crate::enable();
        let r = f();
        crate::disable();
        crate::reset();
        r
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        with_obs(|| {
            counter_add("t.a", 2);
            counter_add("t.a", 3);
            gauge_set("t.g", 1.5);
            histogram_record("t.h", 0);
            histogram_record("t.h", 7);
            let s = snapshot();
            assert_eq!(s.counter("t.a"), 5);
            assert_eq!(s.gauge("t.g"), Some(1.5));
            let h = s.histogram("t.h").unwrap();
            assert_eq!((h.count, h.sum, h.min, h.max), (2, 7, 0, 7));
            assert_eq!(h.buckets[bucket_index(0)], 1);
            assert_eq!(h.buckets[bucket_index(7)], 1);
            assert!((h.mean() - 3.5).abs() < 1e-12);
        });
    }

    #[test]
    fn disabled_mutations_are_dropped() {
        with_obs(|| {
            crate::disable();
            counter_add("t.off", 1);
            gauge_set("t.off.g", 1.0);
            histogram_record("t.off.h", 1);
            assert!(snapshot().is_empty());
            crate::enable();
        });
    }

    #[test]
    fn cross_thread_writes_fold_into_one_snapshot() {
        with_obs(|| {
            counter_add("t.x", 1);
            histogram_record("t.xh", 10);
            gauge_set("t.xg", 1.0);
            std::thread::spawn(|| {
                counter_add("t.x", 41);
                histogram_record("t.xh", 1000);
                gauge_set("t.xg", 2.0); // later write -> must win
            })
            .join()
            .unwrap();
            let s = snapshot();
            assert_eq!(s.counter("t.x"), 42);
            assert_eq!(s.gauge("t.xg"), Some(2.0));
            assert_eq!(counter_value("t.x"), 42);
            assert_eq!(gauge_value("t.xg"), Some(2.0));
            let h = s.histogram("t.xh").unwrap();
            assert_eq!((h.count, h.min, h.max), (2, 10, 1000));
        });
    }

    #[test]
    fn bucket_bounds_invert_bucket_index_over_the_full_range() {
        // Exhaustive below the linear cutoff, spot checks above, plus the
        // top of the u64 range.
        let mut probes: Vec<u64> = (0..4 * HIST_SUB).collect();
        for shift in HIST_SUB_BITS + 2..64 {
            for delta in [0u64, 1, (1 << shift) / 3, (1 << shift) - 1] {
                probes.push((1u64 << shift) + delta);
            }
        }
        probes.push(u64::MAX);
        for v in probes {
            let i = bucket_index(v);
            assert!(i < HIST_BUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo}, {hi}]");
            // Bounded relative error: bucket width <= lo / HIST_SUB.
            if lo >= HIST_SUB {
                assert!(
                    hi - lo < lo.div_ceil(HIST_SUB) + 1,
                    "bucket {i} too wide: [{lo}, {hi}]"
                );
            } else {
                assert_eq!(lo, hi, "sub-cutoff bucket {i} must be exact");
            }
        }
        // Buckets tile the range without gaps.
        for i in 1..HIST_BUCKETS {
            assert_eq!(
                bucket_bounds(i).0,
                bucket_bounds(i - 1).1 + 1,
                "gap between buckets {} and {i}",
                i - 1
            );
        }
    }

    #[test]
    fn quantiles_track_exact_values_within_one_sub_bucket() {
        // Synthetic distributions with known exact quantiles.
        let exact_quantile = |sorted: &[u64], q: f64| -> u64 {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        let mut rng = 0x5eedu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let uniform: Vec<u64> = (0..10_000).map(|_| next() % 1_000_000).collect();
        let heavy_tail: Vec<u64> = (0..10_000)
            .map(|_| {
                let base = next() % 1000;
                if next() % 100 == 0 {
                    base * 10_000
                } else {
                    base
                }
            })
            .collect();
        let constant: Vec<u64> = vec![777; 1000];
        let small: Vec<u64> = (0..HIST_SUB).collect();
        for (name, samples) in [
            ("uniform", uniform),
            ("heavy_tail", heavy_tail),
            ("constant", constant),
            ("small", small),
        ] {
            let mut h = Histogram::default();
            let mut sorted = samples.clone();
            for &v in &samples {
                h.record(v);
            }
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let exact = exact_quantile(&sorted, q);
                let est = h.quantile(q);
                // The estimate is the upper bound of the exact value's
                // bucket (clamped to observed extremes): error is bounded
                // by one sub-bucket of relative error.
                let tol = exact / HIST_SUB + 1;
                assert!(
                    est.abs_diff(exact) <= tol,
                    "{name} q={q}: estimate {est} vs exact {exact} (tol {tol})"
                );
            }
            let p0 = h.quantile(0.0);
            assert!(
                p0 >= h.min && p0 <= h.min + h.min / HIST_SUB + 1,
                "{name}: p0 {p0} not within a sub-bucket of min {}",
                h.min
            );
            // The top bucket's upper bound clamps to the observed max.
            assert_eq!(h.quantile(1.0), h.max);
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for v in 0..5000u64 {
            let sample = v * v % 77_777;
            if v % 2 == 0 {
                a.record(sample);
            } else {
                b.record(sample);
            }
            whole.record(sample);
        }
        let mut merged = Histogram::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.sum, whole.sum);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        assert_eq!(merged.buckets, whole.buckets);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }
}
