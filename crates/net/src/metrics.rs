//! Derived metrics over the typed event stream: the ledger counters
//! re-derived from events, log2-bucket histograms, and per-phase span timing.
//!
//! The building blocks here consume [`TraceEvent`]s — either live, by
//! installing a [`MetricsSink`] on a kernel, or offline, by feeding parsed
//! JSONL lines to [`Metrics::observe`] (which is what the `tracereport` CLI
//! does). The same aggregation code therefore produces the same numbers in
//! both modes.

use crate::obs::{RunSummary, TraceEvent, TraceSink};
use crate::time::SimTime;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

/// Number of log2 buckets a [`Histogram`] holds (`u64` values need at most
/// 64 significant bits, plus one bucket for zero).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-size log2-bucket histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i−1), 2^i)`. Recording is O(1) with no allocation, which is what a
/// trace-sink hot path needs; the trade-off is bucket-resolution quantiles
/// ([`Histogram::quantile`] returns an upper bound of the containing
/// bucket).
///
/// # Examples
///
/// ```
/// use mobidist_net::metrics::Histogram;
/// let mut h = Histogram::default();
/// for v in [0, 1, 2, 3, 4, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.sum(), 210);
/// assert_eq!(h.max(), 200);
/// assert!(h.quantile(0.5) <= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Index of the bucket holding `v`.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive-exclusive value range `[lo, hi)` of bucket `i` (bucket 0 is
    /// the single value `0`, reported as `[0, 1)`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (
                1u64 << (i - 1),
                1u64.checked_shl(i as u32).unwrap_or(u64::MAX),
            )
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0 ≤ q ≤ 1`); 0 when empty. Resolution is the log2 bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_range(i).1.saturating_sub(1).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, low to high.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, c)
            })
    }
}

impl fmt::Display for Histogram {
    /// Renders one `[lo, hi) count |bar|` line per non-empty bucket.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (lo, hi, c) in self.iter_buckets() {
            let bar = (c * 40).div_ceil(peak) as usize;
            writeln!(f, "  [{lo:>8}, {hi:>8})  {c:>8}  {}", "#".repeat(bar))?;
        }
        Ok(())
    }
}

/// Pairs begin/end events per key and yields the elapsed ticks of each
/// completed span.
///
/// Unmatched ends are ignored (a trace may begin mid-phase); a second begin
/// for an open key restarts that span.
///
/// # Examples
///
/// ```
/// use mobidist_net::metrics::SpanTracker;
/// use mobidist_net::time::SimTime;
/// let mut s = SpanTracker::default();
/// s.begin(3, SimTime::from_ticks(10));
/// assert_eq!(s.end(3, SimTime::from_ticks(25)), Some(15));
/// assert_eq!(s.end(3, SimTime::from_ticks(30)), None); // already closed
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanTracker {
    open: BTreeMap<u32, SimTime>,
}

impl SpanTracker {
    /// Opens (or restarts) the span for `key` at `at`.
    pub fn begin(&mut self, key: u32, at: SimTime) {
        self.open.insert(key, at);
    }

    /// Closes the span for `key`, returning its length in ticks, or `None`
    /// when no span was open.
    pub fn end(&mut self, key: u32, at: SimTime) -> Option<u64> {
        self.open.remove(&key).map(|b| at.saturating_since(b))
    }
}

/// Aggregated metrics over a stream of [`TraceEvent`]s.
///
/// Feed events in order with [`observe`](Self::observe); read counters and
/// histograms at any point. Phase timings come from paired events:
/// `cs_request → cs_enter` builds [`cs_wait`](Self::cs_wait), `cs_enter →
/// cs_exit` builds [`cs_hold`](Self::cs_hold), and `handoff_begin →
/// handoff_end` builds [`handoff_gap`](Self::handoff_gap), all keyed by MH.
///
/// # Examples
///
/// ```
/// use mobidist_net::metrics::Metrics;
/// use mobidist_net::obs::TraceEvent;
/// use mobidist_net::ids::MhId;
/// use mobidist_net::time::SimTime;
///
/// let mut m = Metrics::default();
/// m.observe(SimTime::from_ticks(10), &TraceEvent::CsRequest { mh: MhId(0) });
/// m.observe(SimTime::from_ticks(30), &TraceEvent::CsEnter { mh: MhId(0) });
/// m.observe(SimTime::from_ticks(45), &TraceEvent::CsExit { mh: MhId(0) });
/// assert_eq!(m.cs_wait.sum(), 20);
/// assert_eq!(m.cs_hold.sum(), 15);
/// assert_eq!(m.kind_count("cs_enter"), 1);
/// assert_eq!(m.events, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Total events observed.
    pub events: u64,
    /// Events per kind name (see [`TraceEvent::name`]).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Every ledger counter the stream accounts for, derived from it by
    /// [`RunSummary::tally`] (`run`, `total_cost` and `total_energy` are not
    /// event counts and stay 0).
    pub tally: RunSummary,
    /// Ticks from `cs_request` to the matching `cs_enter`, per MH.
    pub cs_wait: Histogram,
    /// Ticks from `cs_enter` to the matching `cs_exit`, per MH.
    pub cs_hold: Histogram,
    /// Ticks from `handoff_begin` to the matching `handoff_end`, per MH —
    /// the between-cells blackout the algorithm must ride out.
    pub handoff_gap: Histogram,
    /// Number of MHs already waiting for the CS, sampled at each
    /// `cs_request` (a queue-depth histogram).
    pub cs_queue_depth: Histogram,
    waiting: u32,
    wait_spans: SpanTracker,
    hold_spans: SpanTracker,
    handoff_spans: SpanTracker,
}

impl Metrics {
    /// Count of observed events with the given kind name.
    pub fn kind_count(&self, name: &str) -> u64 {
        self.by_kind.get(name).copied().unwrap_or(0)
    }

    /// Folds one event into the aggregates.
    pub fn observe(&mut self, at: SimTime, ev: &TraceEvent) {
        self.events += 1;
        *self.by_kind.entry(ev.name()).or_insert(0) += 1;
        self.tally.tally(ev);
        match *ev {
            TraceEvent::CsRequest { mh } => {
                self.cs_queue_depth.record(self.waiting as u64);
                self.waiting += 1;
                self.wait_spans.begin(mh.0, at);
            }
            TraceEvent::CsEnter { mh } => {
                self.waiting = self.waiting.saturating_sub(1);
                if let Some(d) = self.wait_spans.end(mh.0, at) {
                    self.cs_wait.record(d);
                }
                self.hold_spans.begin(mh.0, at);
            }
            TraceEvent::CsExit { mh } => {
                if let Some(d) = self.hold_spans.end(mh.0, at) {
                    self.cs_hold.record(d);
                }
            }
            TraceEvent::HandoffBegin { mh, .. } => {
                self.handoff_spans.begin(mh.0, at);
            }
            TraceEvent::HandoffEnd { mh, .. } => {
                if let Some(d) = self.handoff_spans.end(mh.0, at) {
                    self.handoff_gap.record(d);
                }
            }
            _ => {}
        }
    }
}

/// A [`TraceSink`] that aggregates [`Metrics`] live, for in-process
/// monitoring without writing a trace file.
///
/// # Examples
///
/// ```
/// use mobidist_net::metrics::MetricsSink;
/// use mobidist_net::obs::TraceSink;
/// let sink = MetricsSink::default();
/// assert_eq!(sink.metrics().events, 0);
/// ```
#[derive(Debug, Default)]
pub struct MetricsSink {
    metrics: Metrics,
}

impl MetricsSink {
    /// Read access to the aggregates so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, at: SimTime, _seq: u64, ev: &TraceEvent) {
        self.metrics.observe(at, ev);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MhId, MssId};

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_range(0), (0, 1));
        assert_eq!(Histogram::bucket_range(3), (4, 8));
        assert_eq!(Histogram::bucket_range(64).1, u64::MAX);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        // Median falls in bucket [64,128): upper bound clamped to max.
        assert!(h.quantile(0.5) >= 63);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.iter_buckets().map(|(_, _, c)| c).sum::<u64>(), 100);
        let rendered = h.to_string();
        assert!(rendered.contains('#'));
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn spans_pair_begin_and_end() {
        let mut m = Metrics::default();
        let t = SimTime::from_ticks;
        m.observe(
            t(5),
            &TraceEvent::HandoffBegin {
                mh: MhId(1),
                from: MssId(0),
            },
        );
        m.observe(
            t(9),
            &TraceEvent::HandoffEnd {
                mh: MhId(1),
                to: MssId(1),
                prev: Some(MssId(0)),
            },
        );
        // Unmatched end: ignored.
        m.observe(
            t(11),
            &TraceEvent::HandoffEnd {
                mh: MhId(2),
                to: MssId(1),
                prev: None,
            },
        );
        assert_eq!(m.handoff_gap.count(), 1);
        assert_eq!(m.handoff_gap.sum(), 4);
        assert_eq!(m.kind_count("handoff_end"), 2);
    }

    #[test]
    fn queue_depth_tracks_concurrent_waiters() {
        let mut m = Metrics::default();
        let t = SimTime::from_ticks;
        m.observe(t(1), &TraceEvent::CsRequest { mh: MhId(0) }); // depth 0
        m.observe(t(2), &TraceEvent::CsRequest { mh: MhId(1) }); // depth 1
        m.observe(t(3), &TraceEvent::CsEnter { mh: MhId(0) });
        m.observe(t(4), &TraceEvent::CsRequest { mh: MhId(2) }); // depth 1
        assert_eq!(m.cs_queue_depth.count(), 3);
        assert_eq!(m.cs_queue_depth.sum(), 2);
        assert_eq!(m.cs_wait.count(), 1);
    }

    #[test]
    fn derived_message_classes_accumulate() {
        let mut m = Metrics::default();
        let t = SimTime::from_ticks;
        m.observe(
            t(1),
            &TraceEvent::FixedSend {
                from: MssId(0),
                to: MssId(1),
            },
        );
        m.observe(
            t(2),
            &TraceEvent::UpSend {
                mh: MhId(0),
                mss: MssId(0),
            },
        );
        m.observe(
            t(3),
            &TraceEvent::CellBroadcast {
                mss: MssId(0),
                listeners: 5,
            },
        );
        m.observe(
            t(4),
            &TraceEvent::DownRecv {
                mh: MhId(0),
                mss: MssId(0),
            },
        );
        assert_eq!(m.tally.fixed_msgs, 1);
        assert_eq!(m.tally.wireless_msgs, 2);
        assert_eq!(m.events, 4);
    }

    #[test]
    fn metrics_sink_aggregates_live() {
        let mut s = MetricsSink::default();
        s.record(SimTime::ZERO, 0, &TraceEvent::CsRequest { mh: MhId(0) });
        assert_eq!(s.metrics().events, 1);
    }
}
