//! The monolithic engine keeps what extraction reads: across `Aeetes::build`
//! on the benchmark's pubmed and dbworld corpora the heap it retains is the
//! clustered index, the variant table and the global order, with no room
//! beside them for one `u32` per variant token. The variants' token
//! sequences, rule ids and origins are derived again on the first read of
//! `derived()` that needs them, once, into arrays cut to what they hold: a
//! second read allocates nothing. On dbworld they are 267 210 tokens, 93 285
//! rule ids and three per-variant arrays, 2.33 MB that extraction never
//! reads; until the arrays were cut, the first read kept 4.19 MB for them.
//!
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::{Aeetes, AeetesConfig};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_rules::DerivedId;
use std::mem::size_of_val;

#[test]
fn the_monolithic_engine_retains_no_token_sequence_until_one_is_read() {
    for (name, profile) in [("pubmed", DatasetProfile::pubmed_like()), ("dbworld", DatasetProfile::dbworld_like())] {
        let data = generate(&profile.with_docs(1), 12);
        // The build's rule lookup lives for its derive: nothing of it is
        // retained, in the engine or in the caller's rule table.
        let dict = data.dictionary.clone();
        let (engine, retained, _) = live_bytes::measured(|| Aeetes::build(dict, &data.rules, &data.interner, AeetesConfig::default()));

        let (by_origin, weight) = engine.derived().raw_arenas();
        let table = size_of_val(by_origin) + size_of_val(weight);
        let (key, untie) = engine.index().order().raw_parts();
        let order = size_of_val(key) + size_of_val(untie);
        // The derived dictionary's handle on what re-derives it (an `Arc`
        // holding the dictionary's and the rule table's part lists and the
        // derive configuration) and the index's and the order's `Arc`
        // headers: 344 bytes on both corpora.
        const BOOKKEEPING: usize = 1 << 10;
        let budget = engine.index().size_bytes() + table + order + BOOKKEEPING;

        let (_, materialised, _) = live_bytes::measured(|| engine.derived().derived(DerivedId(0)).tokens.len());
        let variants = engine.derived().len();
        let tokens: usize = engine.derived().iter().map(|(_, d)| d.tokens.len()).sum();
        let rule_ids: usize = engine.derived().iter().map(|(_, d)| d.rules.len()).sum();
        let sequence = 4 * tokens;
        assert!(
            retained <= budget && budget < retained + sequence,
            "{name}: the build retains {retained} bytes: beyond {budget} bytes of index, variant table, order and bookkeeping, \
             or leaving no room to tell a {sequence}-byte token sequence arena from them"
        );
        // Tokens, and per variant its origin and two offsets; rule ids too
        // — and no more: the arrays are cut to what they hold once derived.
        let arrays = sequence + 4 * rule_ids + 4 * variants + 2 * 4 * (variants + 1);
        assert!(
            materialised >= sequence + 12 * variants,
            "{name}: the first read of a variant retains {materialised} bytes, less than {tokens} tokens' and {variants} variants' arrays"
        );
        assert!(
            materialised <= arrays + BOOKKEEPING,
            "{name}: the first read of a variant retains {materialised} bytes, beyond {arrays} bytes of arrays and bookkeeping"
        );
        let (_, again, peak) = live_bytes::measured(|| engine.derived().derived(DerivedId(variants as u32 - 1)).tokens.len());
        assert_eq!((again, peak), (0, 0), "{name}: a second read allocates");
        println!(
            "monolith_retains: {name}: retains {retained} bytes of {budget} budgeted, beside a {sequence}-byte token arena; \
             the first read derives {materialised} bytes for {arrays} bytes of arrays, the second none"
        );
    }
}
