//! The per-rank metrics registry: histograms + progress-engine counters.
//!
//! Mirrors the way `CommStats` exposes counters — live atomics with a
//! `snapshot()` producing a plain-old-data copy — but for distributions:
//! operation latencies, message sizes, `advance()` behaviour and
//! task-queue depth.

use crate::histogram::{HistogramSnapshot, Log2Histogram};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live per-rank metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Remote put latency, ns (includes any synthetic wire time).
    pub put_ns: Log2Histogram,
    /// Remote get latency, ns.
    pub get_ns: Log2Histogram,
    /// Active-message handler execution time, ns.
    pub am_handle_ns: Log2Histogram,
    /// Duration of `advance()` calls that did work, ns.
    pub advance_ns: Log2Histogram,
    /// Message/transfer sizes, bytes (puts, gets and AM payloads).
    pub msg_bytes: Log2Histogram,
    /// AM inbox depth sampled at each `advance()` poll.
    pub queue_depth: Log2Histogram,
    /// Total `advance()` calls (polls).
    pub advance_polls: AtomicU64,
    /// `advance()` calls that processed at least one message.
    pub advance_work: AtomicU64,
    /// Messages processed by `advance()` in total.
    pub advance_msgs: AtomicU64,
    /// Batch occupancy: logical frames per flushed aggregation batch
    /// (count = batches sent; recorded at each `flush`).
    pub batch_frames: Log2Histogram,
    /// Line fill sizes of the software read cache, bytes (count = cache
    /// misses; recorded at each `cache_fill`).
    pub cache_fill_bytes: Log2Histogram,
}

impl Metrics {
    /// Point-in-time copy of every histogram and counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            put_ns: self.put_ns.snapshot(),
            get_ns: self.get_ns.snapshot(),
            am_handle_ns: self.am_handle_ns.snapshot(),
            advance_ns: self.advance_ns.snapshot(),
            msg_bytes: self.msg_bytes.snapshot(),
            queue_depth: self.queue_depth.snapshot(),
            advance_polls: self.advance_polls.load(Ordering::Relaxed),
            advance_work: self.advance_work.load(Ordering::Relaxed),
            advance_msgs: self.advance_msgs.load(Ordering::Relaxed),
            batch_frames: self.batch_frames.snapshot(),
            cache_fill_bytes: self.cache_fill_bytes.snapshot(),
        }
    }
}

/// A point-in-time copy of [`Metrics`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsSnapshot {
    /// Remote put latency distribution, ns.
    pub put_ns: HistogramSnapshot,
    /// Remote get latency distribution, ns.
    pub get_ns: HistogramSnapshot,
    /// AM handler execution time distribution, ns.
    pub am_handle_ns: HistogramSnapshot,
    /// Working `advance()` duration distribution, ns.
    pub advance_ns: HistogramSnapshot,
    /// Transfer size distribution, bytes.
    pub msg_bytes: HistogramSnapshot,
    /// Sampled AM inbox depth distribution.
    pub queue_depth: HistogramSnapshot,
    /// Total `advance()` polls.
    pub advance_polls: u64,
    /// Polls that found work.
    pub advance_work: u64,
    /// Messages processed across all polls.
    pub advance_msgs: u64,
    /// Batch occupancy distribution (frames per aggregation batch).
    pub batch_frames: HistogramSnapshot,
    /// Line fill size distribution of the software read cache, bytes.
    pub cache_fill_bytes: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Fraction of `advance()` polls that found work (the progress
    /// engine's poll-to-work ratio; low values mean wasted spinning).
    pub fn poll_work_ratio(&self) -> f64 {
        if self.advance_polls == 0 {
            0.0
        } else {
            self.advance_work as f64 / self.advance_polls as f64
        }
    }

    /// Merge another rank's snapshot into an aggregate.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            put_ns: self.put_ns.merged(&other.put_ns),
            get_ns: self.get_ns.merged(&other.get_ns),
            am_handle_ns: self.am_handle_ns.merged(&other.am_handle_ns),
            advance_ns: self.advance_ns.merged(&other.advance_ns),
            msg_bytes: self.msg_bytes.merged(&other.msg_bytes),
            queue_depth: self.queue_depth.merged(&other.queue_depth),
            advance_polls: self.advance_polls + other.advance_polls,
            advance_work: self.advance_work + other.advance_work,
            advance_msgs: self.advance_msgs + other.advance_msgs,
            batch_frames: self.batch_frames.merged(&other.batch_frames),
            cache_fill_bytes: self.cache_fill_bytes.merged(&other.cache_fill_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = Metrics::default();
        m.put_ns.record(100);
        m.advance_polls.fetch_add(4, Ordering::Relaxed);
        m.advance_work.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.put_ns.count, 1);
        assert_eq!(s.advance_polls, 4);
        assert!((s.poll_work_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(MetricsSnapshot::default().poll_work_ratio(), 0.0);
    }

    #[test]
    fn merged_aggregates_ranks() {
        let a = Metrics::default();
        a.msg_bytes.record(8);
        a.advance_polls.fetch_add(2, Ordering::Relaxed);
        let b = Metrics::default();
        b.msg_bytes.record(1024);
        b.advance_polls.fetch_add(3, Ordering::Relaxed);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.msg_bytes.count, 2);
        assert_eq!(m.advance_polls, 5);
    }
}
