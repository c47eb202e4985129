//! Document-parallel batch extraction over the persistent pool.
//!
//! This replaces the old per-call `std::thread::scope` batch in
//! `aeetes-core`: the same claim-counter work distribution, the same
//! per-document panic isolation and cancellation semantics, but the
//! workers — and their warm [`ExtractScratch`]es — already exist.
//!
//! Results land in per-document [`BatchSlot`]s whose buffers survive
//! across calls ([`extract_batch_into`]), so a steady-state batch over a
//! warmed pool performs *zero* heap allocations end to end — queue
//! capacity, worker scratches and result vectors are all at their
//! high-water mark. [`extract_batch_with`] is the owning convenience over
//! the process-wide pool.

use crate::{on_pool_worker, Pool};
use aeetes_core::{panic_message, BatchOptions, CancelToken, DocError, ExtractBackend, ExtractOutcome, ExtractScratch, ExtractStats, Match};
use aeetes_text::Document;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    /// Scratch for inline (single-threaded or worker-reentrant) batches.
    static INLINE_SCRATCH: RefCell<ExtractScratch> = RefCell::new(ExtractScratch::new());
}

/// Per-document result buffer, reused across batches.
#[derive(Debug, Default)]
pub struct BatchSlot {
    /// Matches of the document, sorted by `(span, entity)` (under
    /// `BatchOptions::top_k`: by score, best first); empty when `error` is
    /// set.
    pub matches: Vec<Match>,
    /// Whether any budget cut the document short.
    pub truncated: bool,
    /// Work counters of the (possibly partial) run.
    pub stats: ExtractStats,
    /// Per-stage timing slots.
    pub stages: aeetes_core::StageSlots,
    /// Why the document produced no result, if it didn't.
    pub error: Option<DocError>,
}

/// Reusable result buffers for [`extract_batch_into`]. Slots keep their
/// match-vector capacity across batches; slot `i` always serves document
/// `i`, so capacities converge to the per-position high-water mark.
#[derive(Debug, Default)]
pub struct BatchBuf {
    slots: Vec<BatchSlot>,
    live: usize,
}

impl BatchBuf {
    /// An empty buffer; slots are created on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slots of the most recent batch, one per document in input order.
    pub fn slots(&self) -> &[BatchSlot] {
        &self.slots[..self.live]
    }
}

fn run_one<E>(engine: &E, doc: &Document, tau: f64, opts: &BatchOptions, scratch: &mut ExtractScratch, slot: &mut BatchSlot)
where
    E: ExtractBackend + ?Sized,
{
    slot.error = None;
    slot.matches.clear();
    slot.truncated = false;
    slot.stats = ExtractStats::default();
    slot.stages = aeetes_core::StageSlots::default();
    if opts.cancel.is_cancelled() {
        slot.error = Some(DocError::Cancelled);
        return;
    }
    // AssertUnwindSafe: the engine is immutable (`&self`) and the scratch
    // resets at the start of every pass — a caught panic cannot leak
    // broken state into the worker's next document.
    let r = catch_unwind(AssertUnwindSafe(|| {
        let out = engine.extract_request(doc, &opts.request(tau), scratch);
        slot.matches.extend_from_slice(out.matches);
        slot.truncated = out.truncated;
        slot.stats = out.stats;
        slot.stages = out.stages;
    }));
    if let Err(payload) = r {
        slot.matches.clear();
        slot.error = Some(DocError::Panicked(panic_message(payload)));
    }
}

/// Batch extraction into reusable buffers: `buf.slots()[i]` is the outcome
/// of `docs[i]`. Documents are distributed over up to `opts.threads` pool
/// workers by a shared claim counter; `opts.threads <= 1` (or a call from
/// inside a pool worker) runs inline on the calling thread. Per-document
/// panic isolation, mid-document cancellation and [`ExtractLimits`]
/// semantics match [`extract_batch_with`] exactly.
///
/// Once `buf`, the pool's worker scratches (see [`Pool::on_each_worker`])
/// and the queues are warm, a batch performs no heap allocation.
///
/// [`ExtractLimits`]: aeetes_core::ExtractLimits
pub fn extract_batch_into<E>(pool: &Pool, engine: &E, docs: &[Document], tau: f64, opts: &BatchOptions, buf: &mut BatchBuf)
where
    E: ExtractBackend + ?Sized,
{
    let len = docs.len();
    buf.live = len;
    if buf.slots.len() < len {
        buf.slots.resize_with(len, BatchSlot::default);
    }
    let threads = opts.threads.clamp(1, len.max(1));
    if threads <= 1 || len <= 1 || on_pool_worker() {
        INLINE_SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            for (doc, slot) in docs.iter().zip(&mut buf.slots) {
                run_one(engine, doc, tau, opts, &mut scratch, slot);
            }
        });
        return;
    }
    let stubs = threads.min(pool.workers()).min(len);
    // Item panics are caught inside run_one, so the pool-level flag stays
    // clear; every document runs on a worker with a pool-resident scratch.
    pool.run_indexed(&mut buf.slots[..len], stubs, |i, slot, scratch| {
        run_one(engine, &docs[i], tau, opts, scratch, slot);
    });
}

/// Fault-isolated batch extraction over the process-wide [`Pool::global`]
/// pool: `results[i]` is the outcome of `docs[i]`, or a [`DocError`] if
/// that document panicked or the batch was cancelled before it started.
/// `opts.cancel` is honoured *mid-document*: a document in flight when the
/// token fires stops at the next window boundary with a truncated (partial
/// but exact) outcome.
pub fn extract_batch_with<E>(engine: &E, docs: &[Document], tau: f64, opts: &BatchOptions) -> Vec<Result<ExtractOutcome, DocError>>
where
    E: ExtractBackend + ?Sized,
{
    let mut buf = BatchBuf::new();
    extract_batch_into(Pool::global(), engine, docs, tau, opts, &mut buf);
    buf.slots
        .into_iter()
        .take(docs.len())
        .map(|slot| match slot.error {
            Some(e) => Err(e),
            None => Ok(ExtractOutcome {
                matches: slot.matches,
                truncated: slot.truncated,
                stats: slot.stats,
                stages: slot.stages,
            }),
        })
        .collect()
}

/// Runs `f(i, scratch)` for every `i < len` on up to `threads` pool
/// workers, catching per-item panics and honouring `cancel` between
/// items — the generic building block behind the batch APIs, exposed for
/// tests that need to inject failures at arbitrary items.
pub fn run_batch<R, F>(pool: &Pool, len: usize, threads: usize, cancel: &CancelToken, f: F) -> Vec<Result<R, DocError>>
where
    R: Send,
    F: Fn(usize, &mut ExtractScratch) -> R + Sync,
{
    let run_one = |i: usize, scratch: &mut ExtractScratch| -> Result<R, DocError> {
        if cancel.is_cancelled() {
            return Err(DocError::Cancelled);
        }
        catch_unwind(AssertUnwindSafe(|| f(i, scratch))).map_err(|payload| DocError::Panicked(panic_message(payload)))
    };
    let threads = threads.clamp(1, len.max(1));
    if threads <= 1 || len <= 1 || on_pool_worker() {
        return INLINE_SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            (0..len).map(|i| run_one(i, &mut scratch)).collect()
        });
    }
    let mut results: Vec<Option<Result<R, DocError>>> = (0..len).map(|_| None).collect();
    let stubs = threads.min(pool.workers()).min(len);
    pool.run_indexed(&mut results, stubs, |i, result, scratch| {
        *result = Some(run_one(i, scratch));
    });
    // Every index is claimed exactly once, so empty slots are impossible;
    // map them to Cancelled rather than panicking just in case.
    results.into_iter().map(|s| s.unwrap_or(Err(DocError::Cancelled))).collect()
}
