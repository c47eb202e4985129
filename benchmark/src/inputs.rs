//! Seeded inputs: the four workload specifications, the datagen corpus each
//! is built from, the entities its updates add, and the delta generator.
//!
//! Everything here is a pure function of `(workload, seed)`; the engine
//! under test only ever receives what this module produced. The dictionary
//! and rules are the same for every seed (see [`CORPUS_SEED`]); the seed
//! picks the documents and the update entities.

use aeetes_datagen::{generate, Dataset, DatasetProfile};
use aeetes_shard::DictDelta;
use aeetes_text::{Document, EntityId, TokenId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Similarity threshold of every workload.
pub const TAU: f64 = 0.8;
/// Worker threads, shards and the largest number of busy threads the
/// harness ever starts. Fixed, never derived from the machine, so the same
/// commit measures the same configuration everywhere.
pub const THREADS: usize = 2;
/// Entities one delta adds (and the next one tombstones).
pub const DELTA_ENTITIES: usize = 32;
/// Distinct seeded entity sets the deltas cycle through. Every document
/// carries one planted mention from one set, so each live set is visible
/// in the answers of a quarter of the documents.
pub const UPDATE_SETS: usize = 4;

/// How a workload drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// NDJSON over one loopback TCP connection to a spawned `aeetes serve`.
    Serve,
    /// Monolithic `Aeetes::extract_scratched`, one thread.
    Engine,
    /// `pool::extract_batch_into` over a frozen-adopted sharded engine.
    Batch,
    /// In-process sharded engine; a pass is one delta then all documents.
    UpdateMix,
}

impl Path {
    /// Whether reads see the generation the latest delta produced. The
    /// other paths read generation 1 throughout — the monolithic engine, or
    /// a pinned snapshot of the frozen-adopted one — which is what they
    /// were chosen to measure; the deltas applied between their passes
    /// build new generations beside it.
    pub fn reads_follow_updates(self) -> bool {
        matches!(self, Path::Serve | Path::UpdateMix)
    }
}

/// One workload: fixed name, corpus shape and path.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Path the requests take.
    pub path: Path,
    /// Datagen profile name (`pubmed`, `dbworld`, `usjob`).
    pub profile: &'static str,
    /// Profile scale factor.
    pub scale: f64,
    /// Documents in one pass.
    pub docs: usize,
    /// Documents per request (1, or the batch size).
    pub batch: usize,
    /// Shards of the engine under test.
    pub shards: usize,
    /// Deltas applied after each pass of the timed window (each timed on
    /// its own, serially, with nothing else running).
    pub updates_per_round: usize,
    /// Documents re-checked against the reference after each delta.
    pub update_sample: usize,
}

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "pubmed_serve",
        path: Path::Serve,
        profile: "pubmed",
        scale: 1.0,
        docs: 40,
        batch: 1,
        shards: THREADS,
        // A pass takes 1.8 s here while `serve` stalls 44 ms per reply on
        // the client's delayed ACK: two reloads a round make thirty over the
        // fifteen rounds of a run, and the re-check after each is two
        // documents (one with, one without a mention of the live set).
        updates_per_round: 2,
        update_sample: 2,
    },
    Spec {
        name: "dbworld_engine",
        path: Path::Engine,
        profile: "dbworld",
        scale: 1.0,
        docs: 200,
        batch: 1,
        shards: 1,
        updates_per_round: 1,
        update_sample: 20,
    },
    Spec {
        name: "usjob_batch",
        path: Path::Batch,
        profile: "usjob",
        // 7 500 entities, 424 000 derived variants, an 83 MB artifact and
        // ~310 MiB resident with two generations: twenty times this box's
        // L2, a third of its L3 (which other tenants share).
        scale: 0.25,
        docs: 160,
        batch: 8,
        shards: THREADS,
        updates_per_round: 1,
        update_sample: 20,
    },
    Spec {
        name: "pubmed_update_mix",
        path: Path::UpdateMix,
        profile: "pubmed",
        scale: 1.0,
        docs: 200,
        batch: 1,
        shards: THREADS,
        // The delta opens the pass and is part of its wall time; every
        // document of the pass is checked against the new generation.
        updates_per_round: 1,
        update_sample: 0,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Requests in one pass.
    pub fn requests_per_pass(&self) -> usize {
        self.docs / self.batch
    }
}

/// Everything a run feeds the engine.
pub struct Inputs {
    /// The datagen corpus (dictionary, rules, interner, gold); its own
    /// documents are replaced by [`Inputs::docs`].
    pub data: Dataset,
    /// The pass: datagen's documents, each with one planted mention of an
    /// update-set entity appended.
    pub docs: Vec<Document>,
    /// The same documents as text, for paths that tokenise.
    pub texts: Vec<String>,
    /// `UPDATE_SETS` × `DELTA_ENTITIES` entity strings the deltas add.
    pub update_sets: Vec<Vec<String>>,
    /// Token form of [`Inputs::update_sets`].
    pub update_tokens: Vec<Vec<Vec<TokenId>>>,
}

fn profile_of(name: &str) -> DatasetProfile {
    match name {
        "pubmed" => DatasetProfile::pubmed_like(),
        "dbworld" => DatasetProfile::dbworld_like(),
        "usjob" => DatasetProfile::usjob_like(),
        other => panic!("unknown datagen profile `{other}`"),
    }
}

/// Seed of the dictionary, the rule table and the document pool. Fixed:
/// datagen's rule generator is self-calibrating, and the number of variants
/// it ends up deriving moves with its seed — usjob artifacts built from
/// seeds 12–19 range from 59.7 to 82.8 MB — which would put a ±16 % seed
/// effect under set-up time, memory, update time and verification cost
/// alike. `--seed` instead selects which documents of the pool are the
/// traffic and which entities the updates add.
pub const CORPUS_SEED: u64 = 12;
/// The document pool holds this many times the documents of one pass.
const POOL_FACTOR: usize = 5;

/// Generates the inputs of `spec` from `seed`: the fixed corpus, a seeded
/// choice of `spec.docs` documents from its pool (with their gold
/// mentions), and seeded update entities.
pub fn generate_inputs(spec: &Spec, seed: u64) -> Inputs {
    let profile = profile_of(spec.profile).scaled(spec.scale).with_docs(spec.docs * POOL_FACTOR);
    let mut data = generate(&profile, CORPUS_SEED);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_de17a);

    // Partial Fisher–Yates: the first `spec.docs` slots end up holding a
    // uniform sample of the pool, in a seeded order.
    let mut order: Vec<usize> = (0..data.documents.len()).collect();
    for i in 0..spec.docs {
        let j = rng.gen_range(i..order.len());
        order.swap(i, j);
    }
    order.truncate(spec.docs);
    let mut position = vec![None; data.documents.len()];
    for (new, &old) in order.iter().enumerate() {
        position[old] = Some(new);
    }
    data.gold = data
        .gold
        .iter()
        .filter_map(|g| position[g.doc].map(|doc| aeetes_datagen::GoldMention { doc, ..*g }))
        .collect();
    data.documents = order.iter().map(|&i| data.documents[i].clone()).collect();

    let update_tokens = update_entities(&data, &mut rng);
    let update_sets: Vec<Vec<String>> = update_tokens.iter().map(|set| set.iter().map(|t| data.interner.render(t)).collect()).collect();

    // Plant one update-set mention at the end of every document, followed
    // by the document's own first two tokens so the mention is not the
    // final window. Which set and which entity is a function of the
    // document's position only.
    let docs: Vec<Document> = data
        .documents
        .iter()
        .enumerate()
        .map(|(j, d)| {
            let set = &update_tokens[j % UPDATE_SETS];
            let entity = &set[(j / UPDATE_SETS) % set.len()];
            let mut tokens = d.tokens().to_vec();
            tokens.extend_from_slice(entity);
            tokens.extend_from_slice(&d.tokens()[..d.len().min(2)]);
            Document::from_tokens(tokens)
        })
        .collect();
    let texts = docs.iter().map(|d| data.interner.render(d.tokens())).collect();
    Inputs { data, docs, texts, update_sets, update_tokens }
}

/// Builds the update entities by splicing the head of one dictionary entity
/// onto the tail of another: realistic tokens, lengths and rule
/// applicability, no new vocabulary, and never an entity the dictionary
/// (or another set) already holds.
fn update_entities(data: &Dataset, rng: &mut SmallRng) -> Vec<Vec<Vec<TokenId>>> {
    let n = data.dictionary.len();
    let mut seen: HashSet<Vec<TokenId>> = data.dictionary.iter().map(|(_, e)| e.tokens.to_vec()).collect();
    let mut sets = Vec::with_capacity(UPDATE_SETS);
    for _ in 0..UPDATE_SETS {
        let mut set = Vec::with_capacity(DELTA_ENTITIES);
        while set.len() < DELTA_ENTITIES {
            let a = data.dictionary.entity(EntityId(rng.gen_range(0..n) as u32));
            let b = data.dictionary.entity(EntityId(rng.gen_range(0..n) as u32));
            let mut tokens: Vec<TokenId> = a[..a.len().div_ceil(2)].to_vec();
            for &t in &b[b.len() / 2..] {
                if !tokens.contains(&t) {
                    tokens.push(t);
                }
            }
            if tokens.len() >= 2 && seen.insert(tokens.clone()) {
                set.push(tokens);
            }
        }
        sets.push(set);
    }
    sets
}

/// The entity set a delta made live: which of the seeded sets, and the id
/// its first entity received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Live {
    /// Index into [`Inputs::update_sets`].
    pub set: usize,
    /// Dictionary id of the set's first entity in this generation.
    pub first_id: u32,
}

/// Produces the delta sequence. Every delta after the priming one has the
/// same shape — add the next set's 32 entities and tombstone the 32 the
/// previous delta added — so update timings are unimodal and the live
/// dictionary size is steady at `base + 32`.
#[derive(Debug, Clone)]
pub struct DeltaGen {
    next_id: u32,
    issued: usize,
    live: Option<Live>,
}

impl DeltaGen {
    /// A generator for a dictionary that currently holds `base_len` ids.
    pub fn new(base_len: usize) -> Self {
        DeltaGen { next_id: base_len as u32, issued: 0, live: None }
    }

    /// The set the most recent delta made live.
    pub fn live(&self) -> Option<Live> {
        self.live
    }

    /// The next delta. The first call returns the priming delta (adds only;
    /// callers apply it outside any timed region).
    pub fn next(&mut self, sets: &[Vec<String>]) -> DictDelta {
        let set = self.issued % sets.len();
        let remove_entities = match self.live {
            Some(prev) => (prev.first_id..prev.first_id + sets[prev.set].len() as u32).map(EntityId).collect(),
            None => Vec::new(),
        };
        let delta = DictDelta { add_entities: sets[set].clone(), remove_entities, add_rules: Vec::new() };
        self.live = Some(Live { set, first_id: self.next_id });
        self.next_id += sets[set].len() as u32;
        self.issued += 1;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Inputs {
        let spec = Spec { scale: 0.02, docs: 8, ..WORKLOADS[0].clone() };
        generate_inputs(&spec, 12)
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b) = (tiny(), tiny());
        assert_eq!(a.texts, b.texts);
        assert_eq!(a.update_sets, b.update_sets);
        let spec = Spec { scale: 0.02, docs: 8, ..WORKLOADS[0].clone() };
        let c = generate_inputs(&spec, 13);
        assert_ne!(a.texts, c.texts, "another seed is another sample of documents");
        assert_ne!(a.update_sets, c.update_sets, "and other update entities");
        // ... over the same dictionary and rules.
        assert_eq!(a.data.dictionary.len(), c.data.dictionary.len());
        assert!(a.data.dictionary.iter().zip(c.data.dictionary.iter()).all(|((_, x), (_, y))| x.tokens == y.tokens));
        assert_eq!(a.data.rules.len(), c.data.rules.len());
    }

    #[test]
    fn gold_mentions_follow_their_documents_into_the_sample() {
        let inp = tiny();
        assert!(!inp.data.gold.is_empty());
        for g in &inp.data.gold {
            assert!(g.doc < inp.docs.len());
            if g.form == aeetes_datagen::MentionForm::Exact {
                assert_eq!(inp.docs[g.doc].slice(g.span), inp.data.dictionary.entity(g.entity));
            }
        }
    }

    #[test]
    fn every_document_carries_its_planted_update_entity() {
        let inp = tiny();
        assert_eq!(inp.docs.len(), 8);
        for (j, d) in inp.docs.iter().enumerate() {
            let ent = &inp.update_tokens[j % UPDATE_SETS][(j / UPDATE_SETS) % DELTA_ENTITIES];
            assert!(d.tokens().windows(ent.len()).any(|w| w == ent.as_slice()), "doc {j} lost its plant");
        }
    }

    #[test]
    fn update_entities_are_new_and_distinct() {
        let inp = tiny();
        let dict: HashSet<Vec<TokenId>> = inp.data.dictionary.iter().map(|(_, e)| e.tokens.to_vec()).collect();
        let mut all = HashSet::new();
        for set in &inp.update_tokens {
            assert_eq!(set.len(), DELTA_ENTITIES);
            for e in set {
                assert!(e.len() >= 2);
                assert!(!dict.contains(e), "update entity already in the dictionary");
                assert!(all.insert(e.clone()), "update entity repeated");
            }
        }
    }

    #[test]
    fn deltas_have_one_shape_and_keep_the_live_size_steady() {
        let sets: Vec<Vec<String>> = (0..UPDATE_SETS).map(|s| (0..DELTA_ENTITIES).map(|k| format!("e{s}x{k} tail")).collect()).collect();
        let base = 1000usize;
        let mut gen = DeltaGen::new(base);
        let prime = gen.next(&sets);
        assert_eq!((prime.add_entities.len(), prime.remove_entities.len()), (DELTA_ENTITIES, 0));
        let mut live: HashSet<u32> = (base as u32..base as u32 + DELTA_ENTITIES as u32).collect();
        let mut table = base + DELTA_ENTITIES;
        for i in 1..=10 {
            let d = gen.next(&sets);
            assert_eq!(d.add_entities.len(), DELTA_ENTITIES, "delta {i} adds");
            assert_eq!(d.remove_entities.len(), DELTA_ENTITIES, "delta {i} removes");
            assert!(d.add_rules.is_empty());
            assert_eq!(d.add_entities, sets[i % UPDATE_SETS]);
            for e in &d.remove_entities {
                assert!(live.remove(&e.0), "delta {i} tombstones an id that is not live");
            }
            let first = gen.live().unwrap().first_id;
            assert_eq!(first as usize, table, "ids continue after the table");
            live.extend(first..first + DELTA_ENTITIES as u32);
            table += DELTA_ENTITIES;
            assert_eq!(live.len(), DELTA_ENTITIES, "live added entities stay at one set");
            assert_eq!(gen.live().unwrap().set, i % UPDATE_SETS);
        }
    }
}
