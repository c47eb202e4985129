//! The engines a case builds, one registration per execution path, and the
//! two comparisons every answer faces.

use super::case::{Build, Case, Limit, Open, World};
use aeetes::baselines::Faerie;
use aeetes::core::{CancelToken, DocError, ExtractLimits};
use aeetes::pool::{extract_batch_into, BatchBuf, BatchSlot};
use aeetes::rules::DerivedId;
use aeetes::shard::Generation;
use aeetes::{
    open_frozen, open_frozen_bytes, select_top_k, Aeetes, AeetesConfig, BatchOptions, Document, ExtractBackend, ExtractRequest, ExtractScratch,
    Match, Metric, Pool, ShardedEngine, Span, StreamExtractor, Tokenizer,
};
use std::sync::{Arc, OnceLock};

/// What a case builds, once: the reference (a heap `Aeetes` over the live
/// dictionary), the engine under test, FaerieR, and the parsed document.
pub struct Built {
    pub reference: Aeetes,
    /// `None` when the build under test is the monolith, the reference.
    pub generation: Option<Arc<Generation>>,
    /// The world after the case's deltas.
    pub live: World,
    pub faerier: Faerie,
    pub doc: Document,
    pub cancel: CancelToken,
}

fn adopt(bytes: &[u8]) -> ShardedEngine {
    ShardedEngine::from_frozen(open_frozen_bytes(bytes).expect("open"), None).expect("adopt")
}

/// The artifact written to a file and mapped from it.
fn adopt_mapped(bytes: &[u8]) -> ShardedEngine {
    static FILES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("aeetes-conformance-{}-{n}.aeet", std::process::id()));
    std::fs::write(&path, bytes).expect("write artifact");
    let parts = open_frozen(&path).expect("open mapped");
    std::fs::remove_file(&path).ok();
    #[cfg(unix)]
    assert!(parts.mmapped, "unix opens map");
    ShardedEngine::from_frozen(parts, None).expect("adopt mapped")
}

impl Built {
    pub fn new(case: &Case) -> Built {
        let config = AeetesConfig { strategy: case.strategy, metric: case.metric, ..AeetesConfig::default() };
        let mut live = (*case.world).clone();
        case.deltas.iter().for_each(|delta| live.apply(delta));
        let reference = Aeetes::from_parts(live.dict.clone(), live.derive(), &live.interner, config.clone());
        let generation = match case.build {
            Build::Monolith => None,
            Build::Parts(n, open) => {
                let world = &case.world;
                let built = ShardedEngine::build(world.dict.clone(), &world.rules, &world.interner, config, n);
                let engine = match open {
                    Open::Heap => built,
                    Open::Bytes => adopt(&built.freeze()),
                    Open::Mmap => adopt_mapped(&built.freeze()),
                };
                for delta in &case.deltas {
                    engine.apply_update(delta, &Tokenizer::default()).expect("delta applies");
                }
                let generation = engine.snapshot();
                assert_eq!(generation.interner().len(), live.interner.len(), "{}: the deltas intern alike", case.label);
                Some(generation)
            }
        };
        let cancel = CancelToken::new();
        if case.limit == Limit::Cancelled {
            cancel.cancel();
        }
        let faerier = Faerie::build_derived(reference.derived());
        let mut built = Built { reference, generation, live, faerier, doc: Document::default(), cancel };
        built.doc = built.parse(&case.doc);
        built
    }

    /// `text` tokenized against the live world's strings.
    pub fn parse(&self, text: &str) -> Document {
        Document::parse(text, &Tokenizer::default(), &mut self.live.interner.clone())
    }

    pub fn engine(&self) -> &dyn ExtractBackend {
        match &self.generation {
            Some(generation) => &**generation,
            None => &self.reference,
        }
    }

    pub fn request(&self, case: &Case) -> ExtractRequest<'_> {
        let limits = match case.limit {
            Limit::Candidates(n) => ExtractLimits { max_candidates: Some(n), ..ExtractLimits::UNLIMITED },
            Limit::Matches(n) => ExtractLimits { max_matches: Some(n), ..ExtractLimits::UNLIMITED },
            Limit::None | Limit::Cancelled => ExtractLimits::UNLIMITED,
        };
        ExtractRequest {
            strategy: Some(case.strategy),
            metric: Some(case.metric),
            weighted: case.weighted,
            top_k: case.top_k,
            limits,
            cancel: Some(&self.cancel),
            ..ExtractRequest::new(case.tau)
        }
    }
}

/// A path's matches and whether a budget cut them short.
pub type Answer = (Vec<Match>, bool);

/// One execution path. `None` means the path cannot express the case.
/// An `exact` path reports variant ids, so it must equal the reference bit
/// for bit; the others report `(span, entity)` and a score.
pub struct Path {
    pub name: &'static str,
    pub exact: bool,
    pub run: fn(&Case, &Built) -> Option<Answer>,
}

pub const PATHS: [Path; 5] = [
    Path { name: "direct", exact: true, run: direct },
    Path { name: "pooled, 1 thread", exact: true, run: |case, built| pooled(case, built, 1) },
    Path {
        name: "pooled, 2 threads",
        exact: true,
        run: |case, built| pooled(case, built, 2),
    },
    Path { name: "streamed", exact: true, run: streamed },
    Path { name: "FaerieR", exact: false, run: faerier },
];

/// `extract_request` on the engine under test.
fn direct(case: &Case, built: &Built) -> Option<Answer> {
    let mut scratch = ExtractScratch::new();
    let out = built.engine().extract_request(&built.doc, &built.request(case), &mut scratch);
    Some((out.matches.to_vec(), out.truncated))
}

/// `extract_batch_into` over the document twice; a batch carries no
/// `weighted` flag, and takes the strategy from the engine's config.
fn pooled(case: &Case, built: &Built, threads: usize) -> Option<Answer> {
    if case.weighted {
        return None;
    }
    static POOL: OnceLock<Pool> = OnceLock::new();
    let req = built.request(case);
    let opts = BatchOptions {
        threads,
        metric: req.metric,
        top_k: req.top_k,
        limits: req.limits,
        cancel: built.cancel.clone(),
    };
    let mut buf = BatchBuf::new();
    let docs = [built.doc.clone(), built.doc.clone()];
    extract_batch_into(POOL.get_or_init(|| Pool::new(2)), built.engine(), &docs, case.tau, &opts, &mut buf);
    let answer = |slot: &BatchSlot| match &slot.error {
        None => (slot.matches.clone(), slot.truncated),
        Some(DocError::Cancelled) => (Vec::new(), true),
        Some(e) => panic!("{}: pooled at {threads}: {e:?}", case.label),
    };
    let (first, second) = (answer(&buf.slots()[0]), answer(&buf.slots()[1]));
    assert_eq!(first, second, "{}: pooled at {threads}: one document, two answers", case.label);
    Some(first)
}

/// A `StreamExtractor` fed the document's bytes in the case's cuts; it
/// answers the engine's configured request, unlimited.
fn streamed(case: &Case, built: &Built) -> Option<Answer> {
    if case.weighted || case.top_k.is_some() || case.limit != Limit::None {
        return None;
    }
    let (engine, tokenizer, mut interner) = (built.engine(), Tokenizer::default(), built.live.interner.clone());
    let mut stream = StreamExtractor::new(engine, case.tau);
    let (bytes, mut from, mut out) = (case.doc.as_bytes(), 0, Vec::new());
    for &cut in case.cuts.iter().chain([&bytes.len()]) {
        out.extend_from_slice(stream.feed(engine, &tokenizer, &mut interner, &bytes[from..cut]));
        from = cut;
    }
    out.extend_from_slice(stream.finish(engine, &tokenizer, &mut interner));
    let mut whole = built.live.interner.clone();
    Document::parse(&case.doc, &tokenizer, &mut whole);
    assert_eq!(interner.len(), whole.len(), "{}: the stream interns what the whole document does", case.label);
    let matches = out.iter().map(|m| Match {
        entity: m.entity,
        span: Span::new(m.start as usize, m.len as usize),
        score: m.score,
        best_variant: m.best_variant,
    });
    Some((matches.collect(), false))
}

/// FaerieR over the live `D_cap(e)`, on its domain: Jaccard, unweighted,
/// everything, unlimited.
fn faerier(case: &Case, built: &Built) -> Option<Answer> {
    if case.metric != Metric::Jaccard || case.weighted || case.top_k.is_some() || case.limit != Limit::None {
        return None;
    }
    let found = built.faerier.extract(&built.doc, case.tau).0;
    let mut matches: Vec<Match> = found
        .iter()
        .map(|m| Match {
            entity: m.entity,
            span: m.span,
            score: m.score,
            best_variant: DerivedId(u32::MAX),
        })
        .collect();
    matches.sort_by_key(Match::sort_key);
    Some((matches, false))
}

/// The same pair with scores within 1e-12 and, where `exact`, the same best
/// variant.
fn same(a: &Match, b: &Match, exact: bool) -> bool {
    (a.span, a.entity) == (b.span, b.entity) && (a.score - b.score).abs() <= 1e-12 && (!exact || a.best_variant == b.best_variant)
}

fn agree(got: &[Match], want: &[Match], exact: bool) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| same(g, w, exact))
}

/// Runs every registered path on `case` and holds each answer to the
/// oracle's (`oracle` is its full answer at τ, `None` where a brute force
/// is too slow) and to the reference's. An untruncated answer equals both;
/// a truncated one is a subset of both full answers. Returns, for each
/// path that could express the case, whether it found anything.
pub fn check(case: &Case, built: &Built, oracle: Option<&[Match]>) -> Vec<(&'static str, bool)> {
    let unlimited = ExtractRequest { limits: ExtractLimits::UNLIMITED, cancel: None, ..built.request(case) };
    let mut scratch = ExtractScratch::new();
    let reference = built.reference.extract_request(&built.doc, &unlimited, &mut scratch).matches.to_vec();
    let everything = match case.top_k {
        Some(_) => built
            .reference
            .extract_request(&built.doc, &ExtractRequest { top_k: None, ..unlimited }, &mut scratch)
            .matches
            .to_vec(),
        None => reference.clone(),
    };
    let expected = oracle.map(|all| {
        let mut answer = all.to_vec();
        if let Some(k) = case.top_k {
            select_top_k(&mut answer, k);
        }
        answer
    });
    let mut ran = Vec::new();
    for path in &PATHS {
        let Some((got, truncated)) = (path.run)(case, built) else { continue };
        let what = || format!("{} on {}: {case:?}\n  got {got:?}", path.name, case.label);
        if truncated {
            for m in &got {
                if let Some(all) = oracle {
                    assert!(all.iter().any(|o| same(o, m, path.exact)), "{}\n  {m:?} is not in the oracle's {all:?}", what());
                }
                assert!(
                    everything.iter().any(|r| if path.exact { r == m } else { same(r, m, false) }),
                    "{}\n  {m:?} is not in the reference's {everything:?}",
                    what()
                );
            }
        } else {
            if let Some(expected) = &expected {
                assert!(agree(&got, expected, path.exact), "{}\n  oracle {expected:?}", what());
            }
            let as_reference = if path.exact { got == reference } else { agree(&got, &reference, false) };
            assert!(as_reference, "{}\n  reference {reference:?}", what());
        }
        ran.push((path.name, !got.is_empty()));
    }
    ran
}
