//! The extraction executor's metric bundle.
//!
//! The worker pool (`aeetes-pool`) records its scheduling activity here:
//! how deep the task queues run, how often idle workers steal from a
//! sibling's deque, and how long each worker spends busy per task. Like
//! [`crate::ExtractMetrics`] this is a bundle of pre-registered `Arc`
//! handles: recording touches only striped atomics, never the registry.

use crate::{Counter, Gauge, Histogram, MetricRegistry};
use std::sync::Arc;

/// Executor metrics, one bundle per process-wide pool.
pub struct PoolMetrics {
    /// `aeetes_pool_workers`: persistent worker threads in the pool.
    pub workers: Arc<Gauge>,
    /// `aeetes_pool_queue_depth`: tasks currently queued (injector plus
    /// every worker deque), excluding tasks already executing.
    pub queue_depth: Arc<Gauge>,
    /// `aeetes_pool_steals_total`: tasks an idle worker took from a
    /// sibling's deque instead of its own or the injector.
    pub steals: Arc<Counter>,
    /// `aeetes_pool_tasks_total`: tasks executed to completion by workers.
    pub tasks: Arc<Counter>,
    /// `aeetes_pool_worker_busy_nanos{worker="i"}`: per-worker histogram of
    /// time spent executing one task.
    pub busy_nanos: Vec<Arc<Histogram>>,
}

impl PoolMetrics {
    /// Registers (or re-acquires) the pool families in `registry` for a
    /// pool of `workers` threads.
    pub fn register(registry: &Arc<MetricRegistry>, workers: usize) -> Self {
        PoolMetrics {
            workers: registry.gauge("aeetes_pool_workers", "Persistent worker threads in the extraction pool"),
            queue_depth: registry.gauge("aeetes_pool_queue_depth", "Tasks queued in the pool (injector + worker deques)"),
            steals: registry.counter("aeetes_pool_steals_total", "Tasks stolen from a sibling worker's deque"),
            tasks: registry.counter("aeetes_pool_tasks_total", "Tasks executed by pool workers"),
            busy_nanos: (0..workers)
                .map(|i| {
                    registry.histogram_with("aeetes_pool_worker_busy_nanos", "Per-task busy time of one pool worker", &[("worker", &i.to_string())])
                })
                .collect(),
        }
    }
}
