//! The one case generator: a world (dictionary and weighted rules), a delta
//! sequence, a document, and one value per axis of the build and the
//! request. A case is a pure function of its seed.

use aeetes::rules::DerivedDictionary;
use aeetes::{AeetesConfig, DictDelta, Dictionary, EntityId, Interner, Metric, RuleDelta, RuleSet, Strategy, Tokenizer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A dictionary, its rules and the strings they intern, with the origins
/// deltas have tombstoned.
#[derive(Clone)]
pub struct World {
    pub name: String,
    pub dict: Dictionary,
    pub rules: RuleSet,
    pub interner: Interner,
    pub removed: BTreeSet<u32>,
}

impl World {
    pub fn new(name: String, dict: Dictionary, rules: RuleSet, interner: Interner) -> World {
        World { name, dict, rules, interner, removed: BTreeSet::new() }
    }

    /// The delta applied as a generation applies it: rules interned before
    /// entities, so both intern every string under the same id.
    pub fn apply(&mut self, delta: &DictDelta) {
        let tokenizer = Tokenizer::default();
        for r in &delta.add_rules {
            self.rules
                .push_weighted_str(&r.lhs, &r.rhs, r.weight, &tokenizer, &mut self.interner)
                .expect("generated delta rules are valid");
        }
        for raw in &delta.add_entities {
            self.dict.push(raw, &tokenizer, &mut self.interner);
        }
        self.removed.extend(delta.remove_entities.iter().map(|e| e.0));
    }

    pub fn live(&self) -> Vec<EntityId> {
        (0..self.dict.len() as u32).filter(|e| !self.removed.contains(e)).map(EntityId).collect()
    }

    /// `D_cap(e)` of every live origin, over the full origin id space.
    pub fn derive(&self) -> DerivedDictionary {
        DerivedDictionary::build_filtered(&self.dict, &self.rules, &AeetesConfig::default().derive, |e| !self.removed.contains(&e.0))
    }
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// How the engine under test comes to be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Build {
    /// The heap-built `Aeetes` monolith over the live dictionary.
    Monolith,
    /// `ShardedEngine::build` in this many parts, then opened this way.
    Parts(usize, Open),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Open {
    Heap,
    Bytes,
    Mmap,
}

pub const BUILDS: [Build; 10] = {
    use Open::*;
    [
        Build::Monolith,
        Build::Parts(1, Heap),
        Build::Parts(1, Bytes),
        Build::Parts(1, Mmap),
        Build::Parts(2, Heap),
        Build::Parts(2, Bytes),
        Build::Parts(2, Mmap),
        Build::Parts(7, Heap),
        Build::Parts(7, Bytes),
        Build::Parts(7, Mmap),
    ]
};

/// What the deltas leave behind the base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum State {
    Fresh,
    /// Deltas spliced into a tail beside the base.
    Tailed,
    /// Deltas with one that removes every live origin, which crosses the
    /// compaction rule: the tail folds into a new base, and the deltas after
    /// it build a tail on that.
    Compacted,
}

/// A budget; deadlines are left out because they are not deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    None,
    Candidates(usize),
    Matches(usize),
    /// A `CancelToken` fired before the call.
    Cancelled,
}

#[derive(Debug, Clone)]
pub struct Case {
    pub label: String,
    pub world: Arc<World>,
    /// What `deltas` do to the base; only the matrix's tally reads it.
    #[allow(dead_code)]
    pub state: State,
    pub deltas: Vec<DictDelta>,
    pub doc: String,
    /// Byte offsets, ascending, where the stream path cuts the document.
    pub cuts: Vec<usize>,
    pub tau: f64,
    pub metric: Metric,
    pub strategy: Strategy,
    pub weighted: bool,
    pub top_k: Option<usize>,
    pub limit: Limit,
    pub build: Build,
}

/// Single letters collide often; the two multi-byte words put stream cuts
/// inside characters. Delta rules rewrite the first four into the rest, so
/// they are never trivial.
const WORDS: [&str; 10] = ["a", "b", "c", "d", "e", "f", "g", "h", "café", "zürich"];

fn phrase(rng: &mut SmallRng, words: &[&str], len: std::ops::RangeInclusive<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n).map(|_| words[rng.gen_range(0..words.len())]).collect::<Vec<_>>().join(" ")
}

/// An entity; one in twelve tokenizes to nothing.
fn entity(rng: &mut SmallRng) -> String {
    if rng.gen_range(0..12) == 0 {
        "!".into()
    } else {
        phrase(rng, &WORDS, 1..=4)
    }
}

fn weight(rng: &mut SmallRng) -> f64 {
    [1.0, 1.0, 0.9, 0.5][rng.gen_range(0..4usize)]
}

/// Adds, removals (of any id, removed already or not, and sometimes of an
/// origin holding the longest live set, so the set-length range shrinks)
/// and rules that reach base and tail origins.
fn delta(rng: &mut SmallRng, live: &World) -> DictDelta {
    let mut remove: Vec<EntityId> = (0..rng.gen_range(0..=2)).map(|_| EntityId(rng.gen_range(0..live.dict.len() as u32))).collect();
    if rng.gen_range(0..4) == 0 {
        let dd = live.derive();
        let longest = dd.iter().max_by_key(|(_, v)| aeetes::sim::sorted_set(v.tokens).len());
        remove.extend(longest.map(|(_, v)| v.origin));
    }
    DictDelta {
        add_entities: (0..rng.gen_range(0..=2)).map(|_| entity(rng)).collect(),
        remove_entities: remove,
        add_rules: (0..rng.gen_range(0..=1))
            .map(|_| RuleDelta {
                lhs: phrase(rng, &WORDS[..4], 1..=2),
                rhs: phrase(rng, &WORDS[4..], 1..=3),
                weight: weight(rng),
            })
            .collect(),
    }
}

impl Case {
    /// Case `seed`. With `fillers`, the dictionary opens with that many
    /// one-token entities `f0, f1, …` and the document holds a few of them.
    #[allow(dead_code)]
    pub fn generate(seed: u64, fillers: u32) -> Case {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let tokenizer = Tokenizer::default();
        let (mut interner, mut dict, mut rules) = (Interner::new(), Dictionary::new(), RuleSet::new());
        for f in 0..fillers {
            dict.push(&format!("f{f}"), &tokenizer, &mut interner);
        }
        let entities: Vec<String> = (0..rng.gen_range(1..=16)).map(|_| entity(rng)).collect();
        for e in &entities {
            dict.push(e, &tokenizer, &mut interner);
        }
        let mut rule_text = Vec::new();
        for _ in 0..rng.gen_range(0..=4) {
            let (lhs, rhs, w) = (phrase(rng, &WORDS[..6], 1..=2), phrase(rng, &WORDS, 1..=3), weight(rng));
            if rules.push_weighted_str(&lhs, &rhs, w, &tokenizer, &mut interner).is_ok() {
                rule_text.push(format!("{lhs} => {rhs} @{w}"));
            }
        }
        let name = format!("{fillers} fillers + {entities:?}, rules {rule_text:?}");
        let world = World::new(name, dict, rules, interner);

        let state = [State::Fresh, State::Tailed, State::Compacted][rng.gen_range(0..3usize)];
        let (mut live, mut deltas) = (world.clone(), Vec::new());
        let steps = match state {
            State::Fresh => 0,
            State::Tailed => rng.gen_range(1..=3),
            State::Compacted => rng.gen_range(1..=4),
        };
        let wipe_at = (state == State::Compacted).then(|| rng.gen_range(0..steps));
        for step in 0..steps {
            let delta = if wipe_at == Some(step) {
                DictDelta {
                    add_entities: (0..rng.gen_range(1..=3)).map(|_| entity(rng)).collect(),
                    remove_entities: live.live(),
                    add_rules: Vec::new(),
                }
            } else {
                delta(rng, &live)
            };
            live.apply(&delta);
            deltas.push(delta);
        }

        // Noise words, and mentions of entities the deltas added or removed.
        let mut words: Vec<String> = (0..rng.gen_range(0..=24))
            .map(|_| if rng.gen_range(0..6) == 0 { "x".into() } else { phrase(rng, &WORDS, 1..=1) })
            .collect();
        let mentions: Vec<&String> = entities.iter().chain(deltas.iter().flat_map(|d| &d.add_entities)).collect();
        for _ in 0..rng.gen_range(0..=2) {
            let at = rng.gen_range(0..=words.len());
            words.insert(at, mentions[rng.gen_range(0..mentions.len())].clone());
        }
        for _ in 0..rng.gen_range(0..=if fillers > 0 { 3 } else { 0 }) {
            let at = rng.gen_range(0..=words.len());
            words.insert(at, format!("f{}", rng.gen_range(0..fillers)));
        }
        let mut doc = String::new();
        for (i, word) in words.iter().enumerate() {
            if i > 0 {
                doc.push_str(if rng.gen_range(0..5) == 0 { ", " } else { " " });
            }
            doc.push_str(word);
        }
        let mut cuts: Vec<usize> = if rng.gen_range(0..8) == 0 {
            (0..=doc.len()).collect()
        } else {
            (0..rng.gen_range(0..=8)).map(|_| rng.gen_range(0..=doc.len())).collect()
        };
        cuts.sort_unstable();

        // Floors below 0.5 widen windows past 2|e|, where the top-k ratchet
        // prunes the most.
        let tau = if rng.gen_bool(0.5) {
            [0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0][rng.gen_range(0..9usize)]
        } else {
            f64::from(rng.gen_range(30u32..=100)) / 100.0
        };
        Case {
            label: format!("case {seed}"),
            world: Arc::new(world),
            state,
            deltas,
            doc,
            cuts,
            tau,
            metric: [Metric::Jaccard, Metric::Jaccard, Metric::Dice, Metric::Cosine, Metric::Overlap][rng.gen_range(0..5usize)],
            strategy: Strategy::ALL[rng.gen_range(0..4usize)],
            weighted: rng.gen_range(0..4) == 0,
            top_k: (rng.gen_range(0..4) == 0).then(|| rng.gen_range(0..=4)),
            limit: match rng.gen_range(0..8) {
                0 => Limit::Candidates(rng.gen_range(0..=12)),
                1 => Limit::Matches(rng.gen_range(0..=4)),
                2 => Limit::Cancelled,
                _ => Limit::None,
            },
            build: BUILDS[rng.gen_range(0..BUILDS.len())],
        }
    }

    /// A case over `world` with no deltas: every match at `tau` under
    /// Jaccard, unweighted, with no budget.
    pub fn over(label: String, world: Arc<World>, doc: String, tau: f64, strategy: Strategy, build: Build) -> Case {
        let cuts = (1..doc.len()).step_by(23).collect();
        Case {
            label,
            world,
            state: State::Fresh,
            deltas: Vec::new(),
            doc,
            cuts,
            tau,
            metric: Metric::Jaccard,
            strategy,
            weighted: false,
            top_k: None,
            limit: Limit::None,
            build,
        }
    }
}
