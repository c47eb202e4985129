//! The mutable shell around immutable generations: parallel build, delta
//! updates spliced into the tail, atomic epoch swap, persistence.

use crate::generation::{splice, Generation, Tier};
use aeetes_core::{aeetes_index, AeetesConfig};
use aeetes_index::IndexDraft;
use aeetes_rules::{derive_into, find_applications, RuleError, RuleSet};
use aeetes_text::{Dictionary, EntityId, Interner, TokenId, Tokenizer};
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

/// A batch of dictionary/rule changes applied as one new generation.
#[derive(Debug, Clone, Default)]
pub struct DictDelta {
    /// Raw entity strings to append (ids continue after the current table).
    pub add_entities: Vec<String>,
    /// Origin ids to tombstone: their variants leave the index, their id
    /// slots stay reserved so surviving ids never shift.
    pub remove_entities: Vec<EntityId>,
    /// Synonym rules to append. Existing derivations only change where a
    /// new rule is applicable (those origins are re-derived).
    pub add_rules: Vec<RuleDelta>,
}

impl DictDelta {
    /// Whether the delta changes anything.
    pub fn is_empty(&self) -> bool {
        self.add_entities.is_empty() && self.remove_entities.is_empty() && self.add_rules.is_empty()
    }
}

/// One rule in a [`DictDelta`].
#[derive(Debug, Clone)]
pub struct RuleDelta {
    /// Left-hand side (tokenized on application).
    pub lhs: String,
    /// Right-hand side.
    pub rhs: String,
    /// Confidence weight in `(0, 1]`; use `1.0` for classic rules.
    pub weight: f64,
}

/// Errors applying a [`DictDelta`]. The update is all-or-nothing: on error
/// the current generation stays in place untouched.
#[derive(Debug)]
pub enum UpdateError {
    /// A removal names an origin id outside the dictionary.
    UnknownEntity(u32),
    /// A new rule is invalid (empty side, trivial, bad weight).
    Rule(RuleError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownEntity(id) => write!(f, "delta removes unknown entity id {id}"),
            UpdateError::Rule(e) => write!(f, "delta contains an invalid rule: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Errors activating a prepared generation (the commit half of the
/// two-phase delta protocol used by fleet coordinators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivateError {
    /// No generation is prepared (never prepared, already activated, or
    /// invalidated by a direct [`ShardedEngine::apply_update`]).
    NothingPrepared,
    /// A generation is prepared, but under a different id than requested.
    WrongGeneration {
        /// Id of the generation currently prepared.
        prepared: u64,
        /// Id the caller asked to activate.
        requested: u64,
    },
}

impl fmt::Display for ActivateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivateError::NothingPrepared => write!(f, "no prepared generation to activate"),
            ActivateError::WrongGeneration { prepared, requested } => {
                write!(f, "prepared generation is {prepared}, not {requested}")
            }
        }
    }
}

impl std::error::Error for ActivateError {}

/// The sharded extraction engine: an atomically swappable current
/// [`Generation`] plus an update lock serializing writers.
///
/// Readers call [`ShardedEngine::snapshot`] and extract against the
/// returned `Arc<Generation>`; they are never blocked by an update (the
/// epoch pointer swap is the only write they can observe). Updates build
/// the next generation off to the side — splicing the changed origins into
/// its tail — and swap when fully constructed.
///
/// Updates come in two flavors: [`ShardedEngine::apply_update`] builds and
/// swaps in one step, and the [`ShardedEngine::prepare_update`] /
/// [`ShardedEngine::activate`] pair splits build from swap so a fleet
/// coordinator can prepare a delta on every replica before any of them
/// starts serving it (no mixed-generation window across a fleet).
pub struct ShardedEngine {
    current: RwLock<Arc<Generation>>,
    /// Serializes `apply_update`/`prepare_update`/`activate` calls; never
    /// held while readers extract.
    update_lock: Mutex<()>,
    /// A generation built by `prepare_update` awaiting `activate`, parked
    /// with the delta that built it. Always exactly one ahead of `current`
    /// when present: a direct `apply_update` clears it, so a prepared
    /// generation can never go stale silently.
    pending: Mutex<Option<(Arc<Generation>, DictDelta)>>,
}

impl ShardedEngine {
    /// Builds generation 1 from scratch, in `parts` parts side by side
    /// ([`aeetes_index`], the build [`aeetes_core::Aeetes::build`] runs in one
    /// part): the index is what one build over the whole dictionary makes,
    /// array for array, whatever the number of parts; `parts == 0` uses the
    /// machine's available parallelism.
    pub fn build(dict: Dictionary, rules: &RuleSet, interner: &Interner, config: AeetesConfig, parts: usize) -> Self {
        let (dd, index) = aeetes_index(&dict, rules, interner, &config.derive, parts);
        let order = index.shared_order();
        let base = Arc::new(Tier { dd, index });
        let generation = Generation::assemble(1, Arc::new(interner.clone()), dict, Vec::new(), rules.clone(), config, order, base, None);
        ShardedEngine {
            current: RwLock::new(Arc::new(generation)),
            update_lock: Mutex::new(()),
            pending: Mutex::new(None),
        }
    }

    /// The current generation. The returned snapshot stays fully usable
    /// (and its shards resident) for as long as the caller holds it, even
    /// across any number of subsequent updates.
    pub fn snapshot(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// The current generation number.
    pub fn generation_id(&self) -> u64 {
        self.snapshot().id()
    }

    /// Applies a delta as a new generation and returns it.
    ///
    /// Only the added, removed and rule-affected origins are re-derived and
    /// re-indexed, into the tail; the base, the interner and the rule table
    /// are shared with the current generation (the interner copied only when
    /// the delta brings a new string; its rules go to a part of their own,
    /// as its entities do to the dictionary). The global
    /// order is extended append-only (existing keys frozen), so the shared
    /// base remains correct next to the spliced tail. The swap is
    /// atomic; concurrent extractions see either the old or the new
    /// generation, never a mixture.
    pub fn apply_update(&self, delta: &DictDelta, tokenizer: &Tokenizer) -> Result<Arc<Generation>, UpdateError> {
        let _guard = self.update_lock.lock().unwrap_or_else(|p| p.into_inner());
        let cur = self.snapshot();
        let next = build_next(&cur, delta, tokenizer)?;
        // A direct apply invalidates any prepared-but-unactivated generation:
        // it was built against a current that no longer exists.
        *self.pending.lock().unwrap_or_else(|p| p.into_inner()) = None;
        *self.current.write().unwrap_or_else(|p| p.into_inner()) = Arc::clone(&next);
        Ok(next)
    }

    /// Builds the next generation from `delta` without swapping it in
    /// (phase one of two-phase delta shipping). The prepared generation is
    /// returned and parked, with the delta, until [`ShardedEngine::activate`]
    /// commits it, a later `prepare_update` replaces it, or
    /// [`ShardedEngine::apply_update`] invalidates it. Serving is untouched:
    /// readers keep extracting the current generation.
    pub fn prepare_update(&self, delta: &DictDelta, tokenizer: &Tokenizer) -> Result<Arc<Generation>, UpdateError> {
        let _guard = self.update_lock.lock().unwrap_or_else(|p| p.into_inner());
        let cur = self.snapshot();
        let next = build_next(&cur, delta, tokenizer)?;
        *self.pending.lock().unwrap_or_else(|p| p.into_inner()) = Some((Arc::clone(&next), delta.clone()));
        Ok(next)
    }

    /// Swaps in the generation previously built by
    /// [`ShardedEngine::prepare_update`] (phase two) and returns it with the
    /// delta that built it. `generation_id` must name the prepared
    /// generation exactly — a coordinator that prepared id `N` on every
    /// replica activates `N` everywhere, and a replica whose prepared id
    /// diverged fails loudly instead of serving a mismatched dictionary.
    pub fn activate(&self, generation_id: u64) -> Result<(Arc<Generation>, DictDelta), ActivateError> {
        let _guard = self.update_lock.lock().unwrap_or_else(|p| p.into_inner());
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        match pending.take() {
            None => Err(ActivateError::NothingPrepared),
            Some((next, delta)) if next.id() != generation_id => {
                let prepared = next.id();
                *pending = Some((next, delta));
                Err(ActivateError::WrongGeneration { prepared, requested: generation_id })
            }
            Some((next, delta)) => {
                *self.current.write().unwrap_or_else(|p| p.into_inner()) = Arc::clone(&next);
                Ok((next, delta))
            }
        }
    }

    /// Id of the prepared-but-unactivated generation, if any.
    pub fn pending_generation(&self) -> Option<u64> {
        self.pending.lock().unwrap_or_else(|p| p.into_inner()).as_ref().map(|(g, _)| g.id())
    }

    /// Serializes the current generation as the frozen (format v14) artifact
    /// — see [`Generation::freeze`]. The artifact carries the generation
    /// number and the built indexes, so an engine opened from it
    /// ([`ShardedEngine::from_frozen`]) continues the same generation
    /// sequence and serves without any derive or index work.
    pub fn freeze(&self) -> Vec<u8> {
        self.snapshot().freeze()
    }
}

/// Builds `cur + delta` as a fully-assembled next generation at a cost
/// proportional to the delta plus the tail.
///
/// An origin is *changed* when the delta can have altered its variants: it
/// is added, newly tombstoned, or a new rule is applicable to its tokens
/// (rules rewrite an origin's own tokens only, and appending a rule moves
/// no existing rule id, so every other origin derives exactly as before).
/// Only the changed origins are derived and indexed, once; they are spliced
/// into the tail and marked superseded in the base ([`splice`]), which
/// extracts and freezes as a rebuild would. A delta that changes no origin
/// keeps the tail as it is. The global order is extended append-only
/// (existing keys frozen) over the fresh variants — a token that only now
/// becomes valid occurs nowhere else — so the shared base and the spliced
/// tail agree on every key they can look up. Pure with respect to the
/// engine: callers decide whether (and when) the result becomes current.
fn build_next(cur: &Generation, delta: &DictDelta, tokenizer: &Tokenizer) -> Result<Arc<Generation>, UpdateError> {
    for e in &delta.remove_entities {
        if e.idx() >= cur.dict.len() {
            return Err(UpdateError::UnknownEntity(e.0));
        }
    }

    // Shared with `cur` until this delta writes to it; the dictionary and
    // the rule table share their parts, and what the delta adds goes to
    // parts of their own.
    let mut interner = Arc::clone(&cur.interner);
    let mut tokenize = |text: &str| {
        tokenizer
            .tokenize_known(text, &interner)
            .unwrap_or_else(|| tokenizer.tokenize(text, Arc::make_mut(&mut interner)))
    };
    let mut dict = cur.dict.clone();

    // The new rules, in a part of their own: it tests which existing
    // origins they touch, then joins the table.
    let mut fresh = RuleSet::new();
    for r in &delta.add_rules {
        fresh.push_tokens(&tokenize(&r.lhs), &tokenize(&r.rhs), r.weight).map_err(UpdateError::Rule)?;
    }

    let first_new = dict.len();
    let added: Vec<Vec<TokenId>> = delta.add_entities.iter().map(|raw| tokenize(raw)).collect();
    let (tokens, raw_bytes) = (added.iter().map(Vec::len).sum(), delta.add_entities.iter().map(String::len).sum());
    dict.reserve_exact(added.len(), tokens, raw_bytes);
    for (raw, tokens) in delta.add_entities.iter().zip(added) {
        dict.push_from(raw, tokens.into_iter());
    }

    // The changed origins, ascending: the newly tombstoned ones, the ones a
    // new rule reaches, the added ones.
    let mut changed: Vec<EntityId> = delta.remove_entities.iter().copied().filter(|e| cur.removed.binary_search(e).is_err()).collect();
    changed.sort_unstable();
    changed.dedup();
    let mut removed = Vec::with_capacity(cur.removed.len() + changed.len());
    removed.extend_from_slice(&cur.removed);
    removed.extend_from_slice(&changed);
    removed.sort_unstable();
    let is_removed = |e: EntityId| removed.binary_search(&e).is_ok();
    let adds_rules = !fresh.is_empty();
    if adds_rules {
        let reach = fresh.lookup_all();
        let reached = dict
            .iter()
            .take(first_new)
            .filter(|&(e, ent)| !is_removed(e) && !find_applications(ent.tokens, &reach).is_empty());
        changed.extend(reached.map(|(e, _)| e));
        changed.sort_unstable();
    }
    changed.extend((first_new..dict.len()).map(|e| EntityId(e as u32)));
    let mut rules = cur.rules.clone();
    rules.append(fresh);
    let (order, base, tail) = if changed.is_empty() {
        (Arc::clone(&cur.order), Arc::clone(&cur.base), cur.tail.clone())
    } else {
        // The changed origins as they derive now, and what the ones that
        // were live contributed to the statistics before — of the base and
        // of the tail, whichever held them.
        // The sides the changed origins' tokens head, looked up for this
        // delta alone — under the table before it too when it adds rules —
        // and dropped once they are derived.
        let (small, departing) = {
            let derive = &cur.config.derive;
            let tokens = || changed.iter().flat_map(|&e| dict.entity(e).iter().copied());
            let lookup = rules.lookup(tokens());
            let small = IndexDraft::derive(&dict, &lookup, derive, changed.iter().copied().filter(|&e| !is_removed(e)));
            let before = adds_rules.then(|| cur.rules.lookup(tokens()));
            let before = before.as_ref().unwrap_or(&lookup);
            let segment = cur.segment();
            let departing = |in_tail: bool| {
                let was_live = |e: &EntityId| e.idx() < first_new && cur.removed.binary_search(e).is_err() && segment.in_tail(*e) == in_tail;
                derive_into(&cur.dict, before, derive, changed.iter().copied().filter(was_live), |_| {})
                    .stats()
                    .clone()
            };
            (small, [departing(false), departing(true)])
        };
        // Freeze existing token keys; only genuinely new tokens get keys,
        // placed after every existing one, so the base agrees with the new
        // order on every key it can ever look up; a delta admitting no token
        // keeps sharing the current order.
        let order = cur
            .order
            .extend_with(small.frequencies(), &interner)
            .map_or_else(|| Arc::clone(&cur.order), Arc::new);
        let (base, tail) = splice(&cur.base, cur.tail.as_deref(), small, &changed, &departing, Arc::clone(&order), dict.len());
        // A compaction keyed the new base by the order folded flat.
        let order = if tail.is_none() { base.index.shared_order() } else { order };
        (order, base, tail)
    };

    Ok(Arc::new(Generation::assemble(cur.id() + 1, interner, dict, removed, rules, cur.config.clone(), order, base, tail)))
}

impl ShardedEngine {
    /// Adopts an opened frozen (v14) artifact: its index becomes this engine's
    /// as it is — zero derive work, zero index builds, arenas still backed by
    /// the mapped file.
    ///
    /// An artifact is adopted or refused, never rebuilt: one whose tombstoned
    /// origin still owns variants is an `Err` saying to rebuild it. The
    /// shard count is ignored; it
    /// is kept so that callers which pass one still compile.
    ///
    /// Later updates leave the mapping in place: the mapped arrays stay the
    /// base, and a small heap tail holds the origins the deltas changed. The
    /// base is copied onto the heap only when the tail grows as large as the
    /// live base and is compacted into it.
    pub fn from_frozen(parts: aeetes_core::FrozenParts, _shards: Option<usize>) -> Result<Self, String> {
        let aeetes_core::FrozenParts { interner, dict, removed, rules, config, generation, order, dd, index, .. } = parts;
        // The `by_origin` prefix alone decides adoptability: frozen validation
        // already proved it is the index's own origin → variant table.
        let by_origin = dd.raw_arenas().0;
        if let Some(e) = removed.iter().find(|e| by_origin.get(e.idx() + 1).is_some_and(|&end| by_origin[e.idx()] < end)) {
            return Err(format!("origin {} is tombstoned but still owns variants; rebuild the artifact with `aeetes build`", e.0));
        }
        let base = Arc::new(Tier { dd, index });
        let generation = Generation::assemble(generation.max(1), Arc::new(interner), dict, removed, rules, config, order, base, None);
        Ok(ShardedEngine {
            current: RwLock::new(Arc::new(generation)),
            update_lock: Mutex::new(()),
            pending: Mutex::new(None),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_core::{Aeetes, ExtractBackend, FreezeSegment, FreezeSource};
    use aeetes_index::IdWidth;
    use aeetes_rules::DerivedDictionary;
    use aeetes_text::Document;

    fn fixture() -> (Dictionary, RuleSet, Interner, Tokenizer) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        for raw in ["purdue university usa", "uq au", "university of wisconsin madison", "rmit au", "nyu ny usa"] {
            dict.push(raw, &tok, &mut int);
        }
        let mut rules = RuleSet::new();
        rules.push_str("uq", "university of queensland", &tok, &mut int).unwrap();
        rules.push_str("au", "australia", &tok, &mut int).unwrap();
        rules.push_str("usa", "united states", &tok, &mut int).unwrap();
        (dict, rules, int, tok)
    }

    fn docs(int: &mut Interner, tok: &Tokenizer) -> Vec<Document> {
        [
            "she left uq australia for purdue university united states",
            "rmit australia and nyu ny united states",
            "university of wisconsin madison",
            "no entities here at all",
        ]
        .iter()
        .map(|t| Document::parse(t, tok, int))
        .collect()
    }

    #[test]
    fn zero_parts_resolves_to_available_parallelism() {
        let (dict, rules, int, _) = fixture();
        let build = |parts| ShardedEngine::build(dict.clone(), &rules, &int, AeetesConfig::default(), parts).freeze();
        assert!(build(0) == build(1), "the image does not depend on the part count");
    }

    #[test]
    fn update_adds_entities_and_rules_incrementally() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict.clone(), &rules, &int, AeetesConfig::default(), 4);
        assert_eq!(engine.generation_id(), 1);
        let delta = DictDelta {
            add_entities: vec!["eth zurich ch".into()],
            remove_entities: vec![EntityId(1)], // "uq au"
            add_rules: vec![RuleDelta { lhs: "ch".into(), rhs: "switzerland".into(), weight: 1.0 }],
        };
        let generation = engine.apply_update(&delta, &tok).expect("update");
        assert_eq!(generation.id(), 2);
        assert_eq!(engine.generation_id(), 2);
        assert_eq!(generation.removed(), &[EntityId(1)]);

        // The updated engine equals a monolithic engine over the updated
        // dictionary (removed origin filtered out at derive time).
        let mut int2 = generation.interner().clone();
        let mut dict2 = dict;
        dict2.push("eth zurich ch", &tok, &mut int2);
        let mut rules2 = rules;
        rules2.push_str("ch", "switzerland", &tok, &mut int2).unwrap();
        let dd = DerivedDictionary::build_filtered(&dict2, &rules2, &AeetesConfig::default().derive, |e| e != EntityId(1));
        let mono = Aeetes::from_parts(dict2, dd, &int2, AeetesConfig::default());
        for text in ["eth zurich switzerland", "uq australia", "purdue university united states"] {
            let doc = Document::parse(text, &tok, &mut int2);
            for tau in [0.6, 0.9] {
                assert_eq!(generation.extract_all(&doc, tau), mono.extract(&doc, tau), "doc={text} tau={tau}");
            }
        }
        // The tombstoned entity no longer matches anything.
        let doc = Document::parse("uq au", &tok, &mut int2);
        assert!(generation.extract_all(&doc, 1.0).iter().all(|m| m.entity != EntityId(1)));
    }

    #[test]
    fn old_snapshot_survives_update() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 2);
        let old = engine.snapshot();
        let mut int2 = old.interner().clone();
        let doc = Document::parse("uq australia", &tok, &mut int2);
        let before = old.extract_all(&doc, 0.8);
        engine
            .apply_update(&DictDelta { remove_entities: vec![EntityId(1)], ..Default::default() }, &tok)
            .expect("update");
        // The old epoch still answers identically.
        assert_eq!(old.extract_all(&doc, 0.8), before);
        // The new epoch no longer reports the removed entity.
        assert!(engine.snapshot().extract_all(&doc, 0.8).iter().all(|m| m.entity != EntityId(1)));
    }

    #[test]
    fn invalid_delta_is_rejected_and_leaves_generation_unchanged() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 2);
        let bad_remove = DictDelta { remove_entities: vec![EntityId(99)], ..Default::default() };
        assert!(matches!(engine.apply_update(&bad_remove, &tok), Err(UpdateError::UnknownEntity(99))));
        let bad_rule = DictDelta {
            add_rules: vec![RuleDelta { lhs: "x".into(), rhs: "x".into(), weight: 1.0 }],
            ..Default::default()
        };
        assert!(matches!(engine.apply_update(&bad_rule, &tok), Err(UpdateError::Rule(_))));
        assert_eq!(engine.generation_id(), 1, "failed updates must not consume a generation");
    }

    #[test]
    fn updated_engine_round_trips_through_the_artifact() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 3);
        engine
            .apply_update(
                &DictDelta {
                    add_entities: vec!["eth zurich".into()],
                    remove_entities: vec![EntityId(0)],
                    ..Default::default()
                },
                &tok,
            )
            .expect("update");
        let bytes = engine.freeze();
        // A shard count an older caller may still pass is ignored.
        for &override_n in &[None, Some(3)] {
            let parts = aeetes_core::open_frozen_bytes(&bytes).expect("open");
            let restored = ShardedEngine::from_frozen(parts, override_n).expect("from_frozen");
            let g1 = engine.snapshot();
            let g2 = restored.snapshot();
            assert_eq!(g2.id(), g1.id());
            assert_eq!(g2.removed(), g1.removed());
            assert_eq!(g2.variants(), g1.variants());
            let mut int2 = g1.interner().clone();
            for text in ["eth zurich", "uq australia", "purdue university usa"] {
                let doc = Document::parse(text, &tok, &mut int2);
                assert_eq!(g2.extract_all(&doc, 0.7), g1.extract_all(&doc, 0.7), "shards={override_n:?} doc={text}");
            }
        }
    }

    #[test]
    fn prepare_then_activate_equals_direct_apply() {
        let (dict, rules, int, tok) = fixture();
        let delta = DictDelta {
            add_entities: vec!["eth zurich ch".into()],
            remove_entities: vec![EntityId(1)],
            add_rules: vec![RuleDelta { lhs: "ch".into(), rhs: "switzerland".into(), weight: 1.0 }],
        };
        let direct = ShardedEngine::build(dict.clone(), &rules, &int, AeetesConfig::default(), 4);
        direct.apply_update(&delta, &tok).expect("direct update");

        let two_phase = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 4);
        let prepared = two_phase.prepare_update(&delta, &tok).expect("prepare");
        assert_eq!(prepared.id(), 2);
        assert_eq!(two_phase.pending_generation(), Some(2));
        // Prepared but not activated: serving still answers generation 1.
        assert_eq!(two_phase.generation_id(), 1);
        let mut int2 = prepared.interner().clone();
        let doc = Document::parse("eth zurich switzerland", &tok, &mut int2);
        assert!(two_phase.snapshot().extract_all(&doc, 0.7).is_empty(), "new entity invisible before activate");

        let (activated, parked) = two_phase.activate(2).expect("activate");
        assert_eq!(activated.id(), 2);
        assert_eq!(parked.add_entities, delta.add_entities, "activation hands back the delta it built from");
        assert_eq!(two_phase.generation_id(), 2);
        assert_eq!(two_phase.pending_generation(), None);
        for text in ["eth zurich switzerland", "purdue university united states", "uq au"] {
            let doc = Document::parse(text, &tok, &mut int2);
            for tau in [0.6, 0.9] {
                assert_eq!(
                    two_phase.snapshot().extract_all(&doc, tau),
                    direct.snapshot().extract_all(&doc, tau),
                    "two-phase must serve exactly what a direct apply serves: doc={text} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn activate_without_or_with_wrong_prepare_fails() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 2);
        assert_eq!(engine.activate(2).err(), Some(ActivateError::NothingPrepared));
        engine
            .prepare_update(&DictDelta { add_entities: vec!["x y z".into()], ..Default::default() }, &tok)
            .expect("prepare");
        assert_eq!(engine.activate(7).err(), Some(ActivateError::WrongGeneration { prepared: 2, requested: 7 }));
        assert_eq!(engine.generation_id(), 1, "failed activations must not swap");
        assert_eq!(engine.activate(2).expect("activate").0.id(), 2);
        assert_eq!(engine.activate(2).err(), Some(ActivateError::NothingPrepared), "activation is one-shot");
    }

    #[test]
    fn direct_apply_invalidates_prepared_generation() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 2);
        engine
            .prepare_update(&DictDelta { add_entities: vec!["stale pending".into()], ..Default::default() }, &tok)
            .expect("prepare");
        engine
            .apply_update(&DictDelta { add_entities: vec!["direct".into()], ..Default::default() }, &tok)
            .expect("apply");
        assert_eq!(engine.pending_generation(), None, "apply_update must clear a stale prepare");
        assert_eq!(engine.activate(2).err(), Some(ActivateError::NothingPrepared));
        assert_eq!(engine.generation_id(), 2);
    }

    #[test]
    fn reprepare_replaces_the_parked_generation() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 2);
        engine
            .prepare_update(&DictDelta { add_entities: vec!["first".into()], ..Default::default() }, &tok)
            .expect("prepare");
        let second = engine
            .prepare_update(&DictDelta { add_entities: vec!["second".into()], ..Default::default() }, &tok)
            .expect("re-prepare");
        assert_eq!(second.id(), 2, "both prepares build against generation 1");
        assert_eq!(engine.generation_id(), 1);
        // The second prepare is what was parked: the replacement delta (not
        // the first) is activated and handed back.
        let (generation, delta) = engine.activate(2).expect("activate");
        assert_eq!(delta.add_entities, ["second"]);
        let mut int2 = generation.interner().clone();
        let doc = Document::parse("second", &tok, &mut int2);
        assert!(!generation.extract_all(&doc, 1.0).is_empty());
        let doc = Document::parse("first", &tok, &mut int2);
        assert!(generation.extract_all(&doc, 1.0).is_empty());
    }

    #[test]
    fn frozen_round_trip_adopts_the_index_zero_copy() {
        let (dict, rules, int, tok) = fixture();
        for n in [1, 3, 8] {
            let engine = ShardedEngine::build(dict.clone(), &rules, &int, AeetesConfig::default(), n);
            let bytes = engine.freeze();
            let parts = aeetes_core::open_frozen_bytes(&bytes).expect("open frozen");
            let restored = ShardedEngine::from_frozen(parts, None).expect("from_frozen");
            assert_eq!(restored.generation_id(), engine.generation_id());
            let g = restored.snapshot();
            assert!(g.base.dd.is_frozen() && g.base.index.is_frozen(), "the adopted index must stay arena-backed (zero-copy), n={n}");
            let mut int2 = g.interner().clone();
            for doc in docs(&mut int2, &tok) {
                for tau in [0.6, 0.8, 1.0] {
                    assert_eq!(g.extract_all(&doc, tau), engine.snapshot().extract_all(&doc, tau), "n={n} tau={tau}");
                }
            }
        }
    }

    /// An artifact is adopted or refused, never rebuilt: a tombstone whose
    /// variants were not dropped is not adopted, and the error says to
    /// rebuild the artifact.
    #[test]
    fn from_frozen_refuses_what_it_cannot_adopt() {
        let (dict, rules, int, _) = fixture();
        let engine = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 2);
        let g = engine.snapshot();
        let refused = |bytes: &[u8]| match aeetes_core::open_frozen_bytes(bytes) {
            Ok(parts) => ShardedEngine::from_frozen(parts, None).err().expect("must be refused"),
            Err(e) => e.to_string(),
        };
        let freeze = |removed: &[EntityId], segments: Vec<FreezeSegment<'_>>| {
            aeetes_core::freeze_to_bytes(&FreezeSource {
                interner: &g.interner,
                dict: &g.dict,
                removed,
                rules: &g.rules,
                config: &g.config,
                generation: g.id,
                order: &g.order,
                segments,
            })
        };
        let segment = || FreezeSegment { dd: &g.base.dd, index: &g.base.index };

        let one = freeze(&[], vec![segment()]);
        assert!(ShardedEngine::from_frozen(aeetes_core::open_frozen_bytes(&one).expect("open"), Some(3)).is_ok());
        let undropped = refused(&freeze(&[EntityId(0)], vec![segment()]));
        assert!(undropped.contains("origin 0 is tombstoned") && undropped.contains("`aeetes build`"), "{undropped}");
    }

    /// A delta leaves the mapped base in place: the changed origin goes to a
    /// heap tail beside the still-mapped base, which the parent generation
    /// shares.
    #[test]
    fn update_over_frozen_engine_keeps_the_base_mapped() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict.clone(), &rules, &int, AeetesConfig::default(), 2);
        let bytes = engine.freeze();
        let parts = aeetes_core::open_frozen_bytes(&bytes).expect("open frozen");
        let restored = ShardedEngine::from_frozen(parts, None).expect("from_frozen");
        let before = restored.snapshot();
        let delta = DictDelta { add_entities: vec!["brand new".into()], ..Default::default() };
        let after = restored.apply_update(&delta, &tok).expect("update over frozen");
        assert!(after.base.dd.is_frozen() && after.base.index.is_frozen(), "the base is served from the mapping");
        assert!(Arc::ptr_eq(&before.base, &after.base), "the base is shared");
        assert!(after.tail.as_ref().is_some_and(|tail| !tail.tier.dd.is_frozen()), "the changed origin lives in a heap tail");
        // And the updated engine equals a from-scratch build over the same state.
        let mut dict2 = dict;
        let mut int2 = after.interner().clone();
        dict2.push("brand new", &tok, &mut int2);
        let fresh = ShardedEngine::build(dict2, &rules, &int2, AeetesConfig::default(), 2);
        for text in ["brand new", "uq australia", "purdue university united states"] {
            let doc = Document::parse(text, &tok, &mut int2);
            assert_eq!(after.extract_all(&doc, 0.7), fresh.snapshot().extract_all(&doc, 0.7), "doc={text}");
        }
    }

    /// Deltas splice into the tail, sharing the base, until the tail
    /// and the base variants it supersedes reach the live base; that delta
    /// compacts the tail into a fresh base. Every generation on the way
    /// answers as a build of its dictionary does, and its artifact — written
    /// through the compaction — reopens to the same answers and refreezes to
    /// the same bytes. (Byte identity with a rebuild under the extended order
    /// is `tests/properties.rs`'s.)
    #[test]
    fn tails_grow_until_they_compact_into_the_base() {
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict.clone(), &rules, &int, AeetesConfig::default(), 1);
        let (mut dict2, mut int2) = (dict, int.clone());
        let mut bases = vec![Arc::clone(&engine.snapshot().base)];
        let mut tailed = 0;
        for round in 0..12 {
            let raw = format!("new entity number {round}");
            let generation = engine
                .apply_update(&DictDelta { add_entities: vec![raw.clone()], ..Default::default() }, &tok)
                .expect("update");
            dict2.push(&raw, &tok, &mut int2);
            if !Arc::ptr_eq(bases.last().expect("a base"), &generation.base) {
                assert!(generation.tail.is_none(), "round {round}: a compaction empties the tail");
                bases.push(Arc::clone(&generation.base));
            } else {
                assert!(generation.tail.is_some(), "round {round}: a shared base has a tail");
                tailed += 1;
            }
            let fresh = ShardedEngine::build(dict2.clone(), &rules, &int2, AeetesConfig::default(), 1).snapshot();
            let bytes = generation.freeze();
            let reopened = ShardedEngine::from_frozen(aeetes_core::open_frozen_bytes(&bytes).expect("open"), None)
                .expect("adopt")
                .snapshot();
            assert!(reopened.freeze() == bytes, "round {round}");
            assert_eq!((generation.variants(), generation.set_len_range()), (fresh.variants(), fresh.set_len_range()), "round {round}");
            let doc = Document::parse(&format!("{raw} and uq australia"), &tok, &mut int2.clone());
            let want = fresh.extract_all(&doc, 0.7);
            assert!(!want.is_empty(), "round {round}");
            assert_eq!(generation.extract_all(&doc, 0.7), want, "round {round}");
            assert_eq!(reopened.extract_all(&doc, 0.7), want, "round {round}");
        }
        assert!(bases.len() >= 2 && tailed > 0, "twelve one-entity deltas on a five-entity dictionary must both tail and compact");
    }

    /// A delta that takes a 16-bit generation past 2¹⁶ origins builds its tail
    /// at 32 bits and shares the 16-bit base as it stands; the generation
    /// answers as a rebuild does, and freezing — a compaction — chooses the
    /// width afresh: the artifact is the rebuild's, at 32 bits.
    #[test]
    fn a_delta_past_16_bit_ids_builds_a_wide_tail_beside_the_narrow_base() {
        let tok = Tokenizer::default();
        let mut int = Interner::new();
        let mut dict = Dictionary::new();
        // 2¹⁶ origins over 512 tokens: the most a 16-bit index holds.
        for e in 0..1 << 16 {
            dict.push(&format!("a{} b{}", e >> 8, e & 0xFF), &tok, &mut int);
        }
        let mut rules = RuleSet::new();
        rules.push_str("a7", "seventh row", &tok, &mut int).expect("a rule");
        let engine = ShardedEngine::build(dict.clone(), &rules, &int, AeetesConfig::default(), 2);
        let parent = engine.snapshot();
        assert_eq!(parent.base.index.width(), IdWidth::U16);
        let delta = DictDelta {
            add_entities: vec!["brand new".into(), "seventh row b9".into()],
            ..Default::default()
        };
        let generation = engine.apply_update(&delta, &tok).expect("update");
        assert!(Arc::ptr_eq(&parent.base, &generation.base), "the base is shared, not re-encoded");
        let tail = generation.tail.as_ref().expect("a tail beside the base");
        assert_eq!((generation.base.index.width(), tail.tier.index.width()), (IdWidth::U16, IdWidth::U32));

        let mut int2 = generation.interner().clone();
        let mut dict2 = dict;
        for raw in &delta.add_entities {
            dict2.push(raw, &tok, &mut int2);
        }
        let fresh = ShardedEngine::build(dict2, &rules, &int2, AeetesConfig::default(), 2).snapshot();
        assert_eq!(fresh.base.index.width(), IdWidth::U32);
        let doc = Document::parse("brand new then seventh row b9 and a7 b9 near a255 b255", &tok, &mut int2);
        for tau in [0.6, 1.0] {
            let want = fresh.extract_all(&doc, tau);
            assert!(want.len() >= 3, "tau={tau}: {want:?}");
            assert_eq!(generation.extract_all(&doc, tau), want, "tau={tau}");
        }
        // (Byte identity with a rebuild under the extended order is
        // `tests/properties.rs`'s.)
        let bytes = generation.freeze();
        let reopened = ShardedEngine::from_frozen(aeetes_core::open_frozen_bytes(&bytes).expect("open"), None)
            .expect("adopt")
            .snapshot();
        assert_eq!(reopened.base.index.width(), IdWidth::U32);
        assert!(reopened.freeze() == bytes);
        assert_eq!(reopened.extract_all(&doc, 0.6), fresh.extract_all(&doc, 0.6));
    }

    #[test]
    fn refrozen_updated_engine_round_trips() {
        // freeze → open → update → freeze again → open: the second artifact
        // must carry the updated state (a mapped base and a heap tail,
        // re-frozen as one index).
        let (dict, rules, int, tok) = fixture();
        let engine = ShardedEngine::build(dict, &rules, &int, AeetesConfig::default(), 4);
        let parts = aeetes_core::open_frozen_bytes(&engine.freeze()).expect("open");
        let restored = ShardedEngine::from_frozen(parts, None).expect("from_frozen");
        restored
            .apply_update(&DictDelta { add_entities: vec!["eth zurich".into()], ..Default::default() }, &tok)
            .expect("update");
        let parts2 = aeetes_core::open_frozen_bytes(&restored.freeze()).expect("reopen");
        assert_eq!(parts2.generation, 2);
        let again = ShardedEngine::from_frozen(parts2, None).expect("from_frozen again");
        let g = again.snapshot();
        let mut int2 = g.interner().clone();
        let doc = Document::parse("eth zurich", &tok, &mut int2);
        assert!(!g.extract_all(&doc, 1.0).is_empty(), "the re-frozen artifact carries the delta");
    }
}
