//! Opening an artifact file adopts its dictionary in place: across
//! `open_frozen` + `ShardedEngine::from_frozen` on the benchmark's pubmed
//! corpus, the engine owns no dictionary arena byte, and the heap it retains
//! is the decoded rule table, the string table's lookup slots and the
//! generation's per-origin table, with no room beside them for the 975 kB
//! dictionary copy an open used to make (2.22 MB retained then, 1.24 MB
//! now).
//!
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::{open_frozen, peek_info, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::ShardedEngine;

#[test]
fn an_adopted_engine_owns_no_dictionary_arena_byte() {
    let data = generate(&DatasetProfile::pubmed_like().with_docs(1), 12);
    let bytes = ShardedEngine::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default(), 2).freeze();
    let info = peek_info(&bytes).expect("the artifact describes itself");
    let section = |kind: &str| info.sections.iter().find(|s| s.kind == kind).expect("a section of the kind").len;
    let dictionary: usize = ["dict.raws", "dict.raw_off", "dict.tokens", "dict.tok_off"].into_iter().map(section).sum();
    let path = std::env::temp_dir().join(format!("aeetes-open-peak-{}.aeet", std::process::id()));
    std::fs::write(&path, &bytes).expect("write the artifact");
    drop(bytes);

    let (engine, retained, _) = live_bytes::measured(|| {
        let parts = open_frozen(&path).expect("open");
        assert!(cfg!(not(unix)) || parts.mmapped, "the artifact is mapped");
        ShardedEngine::from_frozen(parts, None).expect("adopt")
    });
    let generation = engine.snapshot();
    assert_eq!(generation.dictionary().len(), data.dictionary.len());
    assert_eq!(generation.dictionary().owned_bytes(), 0, "the dictionary's arenas stay in the mapped file");
    // The decoded rule table — a clone sized exactly, while decoding grows
    // each of its vectors up to twice that — the string table's
    // open-addressing slots (a power of two, at least twice the tokens), and
    // per origin the generation's global id base. A heap copy of the
    // dictionary does not fit beside them.
    let (_rules, rules, _) = live_bytes::measured(|| generation.rules().clone());
    let slots = 4 * (2 * data.interner.len()).next_power_of_two();
    let budget = 2 * rules + slots + 4 * generation.dictionary().len();
    assert!(
        retained <= budget && budget < retained + dictionary,
        "opening retains {retained} bytes: beyond {budget} bytes of rule table, lookup slots and per-origin table, or \
         leaving no room to tell a {dictionary}-byte dictionary copy from them"
    );
    drop((generation, engine));
    std::fs::remove_file(&path).expect("remove the artifact");
}
