//! Opening an artifact file adopts its dictionary in place and reads its rule
//! table flat: across `open_frozen` + `ShardedEngine::from_frozen` on the
//! benchmark's pubmed corpus, the engine owns no dictionary arena byte, and
//! the heap it retains is the rule table's side tokens and offsets and the
//! interner's lookup slots, 16-bit at this corpus's size (its strings stay
//! in the file too), with no room
//! beside them for the 975 kB dictionary copy an open used to make (2.22 MB
//! retained then). While the rule table was decoded from META into two
//! `Vec`s a rule and a map of per-token `Vec`s, an open retained 1.24 MB;
//! while a generation kept a global id base per origin, 4 bytes an origin
//! more.
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
    // The rule table, flat — a `u32` per side token and per side offset, and
    // one more; the unit weights store nothing, and no first-token lookup is
    // built until something derives — the string table's open-addressing
    // slots (a power of two, at least twice the tokens), and a few kilobytes
    // whatever the corpus (the section table, `Arc` headers, the
    // generation's own fields). Nothing per origin: a heap copy of the
    // dictionary does not fit beside them.
    const BOOKKEEPING: usize = 4 << 10;
    let rules = generation.rules();
    let side_tokens: usize = rules.part_sides().map(|(tokens, _)| tokens.len()).sum();
    let flat = 4 * (side_tokens + 2 * rules.len() + 1);
    assert_eq!(rules.owned_bytes(), flat, "the rule table is {} rules' sides and offsets, flat", rules.len());
    // The strings stay in the mapped file too: the interner owns its slots
    // — 16-bit below 2^16 strings, as here, 32-bit past that — and the one
    // offset its owned strings would start at.
    let width = if data.interner.len() < 1 << 16 { 2 } else { 4 };
    let slots = width * (2 * data.interner.len()).next_power_of_two();
    assert_eq!(generation.interner().owned_bytes(), slots + 4, "the interner owns its lookup slots, not its strings");
    let budget = flat + slots + BOOKKEEPING;
    assert!(
        retained <= budget && budget < retained + dictionary,
        "opening retains {retained} bytes: beyond {budget} bytes of flat rule table, lookup slots and bookkeeping, or \
         leaving no room to tell a {dictionary}-byte dictionary copy from them"
    );
    println!("open_peak: retains {retained} bytes of {budget} budgeted, beside a {dictionary}-byte dictionary");
    drop((generation, engine));
    std::fs::remove_file(&path).expect("remove the artifact");
}
