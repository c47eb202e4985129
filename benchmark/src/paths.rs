//! The four request paths: set-up, one request, one update — each through
//! the public API of the crate (or the released binary) the workload is
//! about, each answer checked against the reference.

use crate::check::{answers_match, describe_mismatch, EntityRef, GotMatch, Reference};
use crate::inputs::{Inputs, Live, Path as ReqPath, Spec, TAU, THREADS, UPDATE_SETS};
use crate::procfs::{self, Who};
use crate::servectl::{spawn_listener, ChildProc, TcpClient};
use aeetes_cli::protocol::delta_value;
use aeetes_core::{
    freeze_to_bytes, open_frozen, Aeetes, AeetesConfig, BatchOptions, ExtractBackend, ExtractLimits, ExtractScratch, FreezeSegment, FreezeSource,
};
use aeetes_pool::{extract_batch_into, BatchBuf, Pool};
use aeetes_shard::{DictDelta, Generation, ShardedEngine};
use aeetes_text::Tokenizer;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a run hands every path.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Its seeded inputs.
    pub inputs: &'a Inputs,
    /// The answers it must give.
    pub reference: &'a Reference,
    /// Scratch directory inside the checkout (`benchmark/out`).
    pub out_dir: &'a Path,
    /// The released `aeetes` binary.
    pub aeetes: &'a Path,
    /// Pre-serialised extract request of every document (see
    /// [`serve_requests`]); serialising is never on a clock.
    pub serve_requests: &'a [Vec<u8>],
}

impl Ctx<'_> {
    /// Where this workload's frozen artifact is written.
    pub fn artifact_path(&self) -> PathBuf {
        self.out_dir.join(format!("{}.aeet", self.spec.name))
    }
}

/// One timed request and whether every answer in it was right.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Clock read just before the request was issued.
    pub start: Instant,
    /// Clock read when its reply was complete.
    pub end: Instant,
    /// Reference comparison (made after `end`).
    pub ok: bool,
}

/// A set-up engine, driven one request at a time.
pub trait Driver {
    /// Issues request `i` of the pass (one document, or one batch) against
    /// the generation in which `live` is the live update set. `None` is
    /// generation 1: on the in-process paths that read a pinned snapshot
    /// (see `Path::reads_follow_updates`) it stays readable after updates.
    fn request(&mut self, i: usize, live: Option<Live>) -> Result<Answer, String>;
    /// Submits one delta and returns once the new generation is active.
    fn apply(&mut self, delta: &DictDelta) -> Result<Duration, String>;
    /// `VmHWM` of the process holding the engine, in KiB.
    fn peak_rss_kb(&self) -> Result<u64, String>;
    /// Stops whatever set-up started and waits for it.
    fn finish(self: Box<Self>) -> Result<(), String>;
}

/// A finished set-up.
pub struct Ready<'a> {
    /// The engine, having answered its first request.
    pub driver: Box<dyn Driver + 'a>,
    /// Size of the frozen artifact the set-up wrote.
    pub artifact_bytes: u64,
    /// Whether that first answer was right.
    pub first_ok: bool,
}

/// Runs the workload's whole set-up: dictionary + rules in memory → derive
/// → index → freeze → write artifact → open/adopt (→ spawn `serve`) → first
/// request answered. The caller times this call.
pub fn setup<'a>(ctx: &'a Ctx<'a>) -> Result<Ready<'a>, String> {
    let (mut driver, artifact_bytes): (Box<dyn Driver + 'a>, u64) = match ctx.spec.path {
        ReqPath::Serve => ServeDriver::setup(ctx)?,
        ReqPath::Engine => EngineDriver::setup(ctx)?,
        ReqPath::Batch => BatchDriver::setup(ctx)?,
        ReqPath::UpdateMix => MixDriver::setup(ctx)?,
    };
    let first_ok = driver.request(0, None)?.ok;
    Ok(Ready { driver, artifact_bytes, first_ok })
}

fn write_artifact(path: &Path, bytes: &[u8]) -> Result<u64, String> {
    // Plain write, no fsync: set-up time should price the format, not this
    // box's disk flush.
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes.len() as u64)
}

/// Builds the sharded engine from the in-memory dictionary and writes its
/// frozen artifact.
fn build_sharded(ctx: &Ctx<'_>) -> Result<(ShardedEngine, u64), String> {
    let d = &ctx.inputs.data;
    let engine = ShardedEngine::build(d.dictionary.clone(), &d.rules, &d.interner, AeetesConfig::default(), ctx.spec.shards);
    let bytes = write_artifact(&ctx.artifact_path(), &engine.freeze())?;
    Ok((engine, bytes))
}

fn adopt(path: &Path) -> Result<ShardedEngine, String> {
    let parts = open_frozen(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ShardedEngine::from_frozen(parts, None)
}

fn apply_in_process(engine: &ShardedEngine, delta: &DictDelta, tokenizer: &Tokenizer) -> Result<Duration, String> {
    let t = Instant::now();
    engine.apply_update(delta, tokenizer).map_err(|e| e.to_string())?;
    Ok(t.elapsed())
}

/// Compares one document's answer with the reference; the first few
/// differences of a run are described on stderr.
fn check(ctx: &Ctx<'_>, doc: usize, live: Option<Live>, answer: impl ExactSizeIterator<Item = GotMatch> + Clone) -> bool {
    static REPORTED: AtomicUsize = AtomicUsize::new(0);
    let expected = ctx.reference.expected(doc, live);
    let ok = answers_match(answer.clone(), expected, live);
    if !ok && REPORTED.fetch_add(1, Ordering::Relaxed) < 5 {
        let answer: Vec<GotMatch> = answer.collect();
        eprintln!("wrong answer: {} document {doc}, live {live:?}: {}", ctx.spec.name, describe_mismatch(&answer, expected, live));
    }
    ok
}

fn got(matches: &[aeetes_core::Match]) -> impl ExactSizeIterator<Item = GotMatch> + Clone + '_ {
    matches.iter().map(GotMatch::from)
}

// ------------------------------------------------------------------ serve --

/// `pubmed_serve`: NDJSON over one loopback connection to `aeetes serve`.
struct ServeDriver<'a> {
    ctx: &'a Ctx<'a>,
    // Declared before `child` so the connection closes first on drop.
    client: TcpClient,
    child: ChildProc,
    /// Pre-serialised extract requests, one per document.
    requests: &'a [Vec<u8>],
    /// `golden[s][j]`: reply bytes of document `j` that already parsed and
    /// compared equal to the reference while update set `s − 1` was live
    /// (`s = 0`: none). Later identical replies are accepted by a byte
    /// compare, keeping JSON parsing out of the load generator's
    /// per-request work. Only replies naming no added entity are kept:
    /// an added entity's id changes with every reload.
    golden: Vec<Vec<Option<Vec<u8>>>>,
    reply: Vec<u8>,
    reloads: u64,
}

/// Serialises the extract request of every document once per run.
pub fn serve_requests(inputs: &Inputs) -> Vec<Vec<u8>> {
    inputs
        .texts
        .iter()
        .enumerate()
        .map(|(j, text)| {
            let mut line = json!({"id": j, "type": "extract", "doc": text, "tau": TAU}).to_string().into_bytes();
            line.push(b'\n');
            line
        })
        .collect()
}

/// Parses an `ok` extract reply into its matches; `None` for anything else
/// (error, shedding, truncated, malformed) — all of which are failures.
pub fn parse_extract_reply(reply: &[u8]) -> Option<Vec<GotMatch>> {
    let value = serde_json::from_str(std::str::from_utf8(reply).ok()?).ok()?;
    if value.get("status")?.as_str()? != "ok" || value.get("truncated")?.as_bool()? {
        return None;
    }
    value
        .get("matches")?
        .as_array()?
        .iter()
        .map(|m| {
            Some(GotMatch {
                start: u32::try_from(m.get("start")?.as_u64()?).ok()?,
                len: u32::try_from(m.get("len")?.as_u64()?).ok()?,
                entity: u32::try_from(m.get("entity")?.as_u64()?).ok()?,
                score: m.get("score")?.as_f64()?,
            })
        })
        .collect()
}

impl<'a> ServeDriver<'a> {
    fn setup(ctx: &'a Ctx<'a>) -> Result<(Box<dyn Driver + 'a>, u64), String> {
        let (engine, bytes) = build_sharded(ctx)?;
        drop(engine); // the child serves from the artifact, not from this heap copy
        let artifact = ctx.artifact_path();
        let workers = THREADS.to_string();
        let args = [
            "serve",
            "--engine",
            artifact.to_str().expect("utf-8 path"),
            "--frozen",
            "--workers",
            &workers,
            "--listen",
            "127.0.0.1:0",
        ];
        let (child, addr) = spawn_listener(ctx.aeetes, &args, &ctx.out_dir.join(format!("{}.serve.log", ctx.spec.name)))?;
        let client = TcpClient::connect(&addr)?;
        let requests = ctx.serve_requests;
        Ok((
            Box::new(ServeDriver {
                ctx,
                client,
                child,
                requests,
                golden: vec![vec![None; requests.len()]; UPDATE_SETS + 1],
                reply: Vec::new(),
                reloads: 0,
            }),
            bytes,
        ))
    }
}

impl Driver for ServeDriver<'_> {
    fn request(&mut self, i: usize, live: Option<Live>) -> Result<Answer, String> {
        let start = Instant::now();
        self.client.round_trip(&self.requests[i], &mut self.reply)?;
        let end = Instant::now();
        let golden = &mut self.golden[live.map_or(0, |l| l.set + 1)][i];
        let ok = if golden.as_deref() == Some(self.reply.as_slice()) {
            true
        } else {
            let expected = self.ctx.reference.expected(i, live);
            let ok = parse_extract_reply(&self.reply).is_some_and(|m| check(self.ctx, i, live, m.into_iter()));
            if ok && expected.iter().all(|m| matches!(m.entity, EntityRef::Base(_))) {
                *golden = Some(self.reply.clone());
            }
            ok
        };
        Ok(Answer { start, end, ok })
    }

    fn apply(&mut self, delta: &DictDelta) -> Result<Duration, String> {
        let Value::Object(mut body) = delta_value(delta) else {
            unreachable!("delta_value builds an object")
        };
        body.insert("type".into(), json!("reload"));
        body.insert("id".into(), json!(format!("reload-{}", self.reloads)));
        self.reloads += 1;
        let mut line = Value::Object(body).to_string().into_bytes();
        line.push(b'\n');
        let t = Instant::now();
        self.client.round_trip(&line, &mut self.reply)?;
        let took = t.elapsed();
        let text = String::from_utf8_lossy(&self.reply);
        let status_ok = serde_json::from_str(&text)
            .ok()
            .and_then(|v| v.get("status").and_then(Value::as_str).map(|s| s == "ok"))
            == Some(true);
        if status_ok {
            Ok(took)
        } else {
            Err(format!("reload refused: {text}"))
        }
    }

    fn peak_rss_kb(&self) -> Result<u64, String> {
        procfs::peak_rss_kb(Who::Pid(self.child.pid()))
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        let reply = self.client.control(&json!({"type": "shutdown"}))?;
        if reply.get("status").and_then(Value::as_str) != Some("ok") {
            return Err(format!("shutdown refused: {reply}"));
        }
        self.child.wait_or_kill()
    }
}

// ----------------------------------------------------------------- engine --

/// `dbworld_engine`: the monolithic engine, one thread, one reused scratch.
struct EngineDriver<'a> {
    ctx: &'a Ctx<'a>,
    engine: Aeetes,
    scratch: ExtractScratch,
    /// The only update path the system has: a one-shard sharded engine,
    /// adopted from the artifact the set-up wrote when the first delta
    /// arrives. Requests after an update read its current generation.
    updater: Option<ShardedEngine>,
    tokenizer: Tokenizer,
}

impl<'a> EngineDriver<'a> {
    fn setup(ctx: &'a Ctx<'a>) -> Result<(Box<dyn Driver + 'a>, u64), String> {
        let d = &ctx.inputs.data;
        let engine = Aeetes::build(d.dictionary.clone(), &d.rules, &d.interner, AeetesConfig::default());
        let frozen = freeze_to_bytes(&FreezeSource {
            interner: &d.interner,
            dict: engine.dictionary(),
            removed: &[],
            rules: &d.rules,
            config: engine.config(),
            generation: 1,
            order: engine.index().order(),
            segments: vec![FreezeSegment { dd: engine.derived(), index: engine.index() }],
        });
        let bytes = write_artifact(&ctx.artifact_path(), &frozen)?;
        Ok((
            Box::new(EngineDriver {
                ctx,
                engine,
                scratch: ExtractScratch::new(),
                updater: None,
                tokenizer: Tokenizer::default(),
            }),
            bytes,
        ))
    }
}

impl Driver for EngineDriver<'_> {
    fn request(&mut self, i: usize, live: Option<Live>) -> Result<Answer, String> {
        let doc = &self.ctx.inputs.docs[i];
        match (&self.updater, live) {
            (Some(updater), Some(_)) => {
                let generation = updater.snapshot();
                let start = Instant::now();
                let out = generation.extract_scratched(doc, TAU, &ExtractLimits::UNLIMITED, None, &mut self.scratch);
                let end = Instant::now();
                Ok(Answer { start, end, ok: !out.truncated && check(self.ctx, i, live, got(out.matches)) })
            }
            _ => {
                let start = Instant::now();
                let out = self.engine.extract_scratched(doc, TAU, &ExtractLimits::UNLIMITED, None, &mut self.scratch);
                let end = Instant::now();
                Ok(Answer { start, end, ok: !out.truncated && check(self.ctx, i, live, got(out.matches)) })
            }
        }
    }

    fn apply(&mut self, delta: &DictDelta) -> Result<Duration, String> {
        if self.updater.is_none() {
            self.updater = Some(adopt(&self.ctx.artifact_path())?);
        }
        apply_in_process(self.updater.as_ref().expect("just adopted"), delta, &self.tokenizer)
    }

    fn peak_rss_kb(&self) -> Result<u64, String> {
        procfs::peak_rss_kb(Who::Me)
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

// ------------------------------------------------------------------ batch --

/// `usjob_batch`: 8-document batches on the 2-worker pool over a 2-shard
/// engine adopted zero-copy from the frozen artifact.
struct BatchDriver<'a> {
    ctx: &'a Ctx<'a>,
    engine: ShardedEngine,
    /// Generation 1 — the arenas still backed by the mapped artifact — which
    /// every timed read uses, whatever deltas have been applied since.
    adopted: Arc<Generation>,
    pool: &'static Pool,
    buf: BatchBuf,
    opts: BatchOptions,
    tokenizer: Tokenizer,
}

impl<'a> BatchDriver<'a> {
    fn setup(ctx: &'a Ctx<'a>) -> Result<(Box<dyn Driver + 'a>, u64), String> {
        let (built, bytes) = build_sharded(ctx)?;
        drop(built);
        let engine = adopt(&ctx.artifact_path())?;
        let adopted = engine.snapshot();
        let opts = BatchOptions { threads: THREADS, ..BatchOptions::default() };
        Ok((
            Box::new(BatchDriver {
                ctx,
                engine,
                adopted,
                pool: Pool::global(),
                buf: BatchBuf::new(),
                opts,
                tokenizer: Tokenizer::default(),
            }),
            bytes,
        ))
    }
}

impl Driver for BatchDriver<'_> {
    fn request(&mut self, i: usize, live: Option<Live>) -> Result<Answer, String> {
        let n = self.ctx.spec.batch;
        let docs = &self.ctx.inputs.docs[i * n..(i + 1) * n];
        let generation = if live.is_some() { self.engine.snapshot() } else { Arc::clone(&self.adopted) };
        let start = Instant::now();
        extract_batch_into(self.pool, &*generation, docs, TAU, &self.opts, &mut self.buf);
        let end = Instant::now();
        let ok = self
            .buf
            .slots()
            .iter()
            .enumerate()
            .all(|(k, slot)| slot.error.is_none() && !slot.truncated && check(self.ctx, i * n + k, live, got(&slot.matches)));
        Ok(Answer { start, end, ok })
    }

    fn apply(&mut self, delta: &DictDelta) -> Result<Duration, String> {
        apply_in_process(&self.engine, delta, &self.tokenizer)
    }

    fn peak_rss_kb(&self) -> Result<u64, String> {
        procfs::peak_rss_kb(Who::Me)
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

// -------------------------------------------------------------------- mix --

/// `pubmed_update_mix`: the heap-built 2-shard engine, read one document at
/// a time from whatever generation is current.
struct MixDriver<'a> {
    ctx: &'a Ctx<'a>,
    engine: ShardedEngine,
    scratch: ExtractScratch,
    tokenizer: Tokenizer,
}

impl<'a> MixDriver<'a> {
    fn setup(ctx: &'a Ctx<'a>) -> Result<(Box<dyn Driver + 'a>, u64), String> {
        let (engine, bytes) = build_sharded(ctx)?;
        Ok((Box::new(MixDriver { ctx, engine, scratch: ExtractScratch::new(), tokenizer: Tokenizer::default() }), bytes))
    }
}

impl Driver for MixDriver<'_> {
    fn request(&mut self, i: usize, live: Option<Live>) -> Result<Answer, String> {
        let doc = &self.ctx.inputs.docs[i];
        let start = Instant::now();
        let generation = self.engine.snapshot();
        let out = generation.extract_scratched(doc, TAU, &ExtractLimits::UNLIMITED, None, &mut self.scratch);
        let end = Instant::now();
        Ok(Answer { start, end, ok: !out.truncated && check(self.ctx, i, live, got(out.matches)) })
    }

    fn apply(&mut self, delta: &DictDelta) -> Result<Duration, String> {
        apply_in_process(&self.engine, delta, &self.tokenizer)
    }

    fn peak_rss_kb(&self) -> Result<u64, String> {
        procfs::peak_rss_kb(Who::Me)
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}
