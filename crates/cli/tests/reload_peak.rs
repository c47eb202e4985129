//! Reloads through the serve path cost what they change: ten
//! `{"type":"reload"}` lines of the benchmark's shape (32 added entities,
//! each line after the first tombstoning the 32 before), handed to a
//! `Session` of a `Server` over an artifact opened from its file, leave on
//! the heap the entities they appended, the last generation's tail and —
//! when a delta admitted a token — the global order's overlay of admitted
//! tokens; and they peak above that at the generation a reload replaces and
//! one delta's drafts and rule lookup. Nothing is sized by the dictionary's
//! origins, its token ids or its rules: each derive's first-token lookup is
//! sized by the distinct tokens of the origins it derives and lives for that
//! derive, and an extended order shares the mapped arrays.
//!
//! `pubmed_serve`'s `peak_rss_mb` is the served process's high-water mark,
//! and it is set by its reloads: until a generation's tail was listed, each
//! kept four `u32`s per origin and one per token id (0.43 MB on this
//! corpus), and each delta's drafts held 0.28 MB more while it built. Until
//! the rule lookup lived for one derive and an extension was an overlay,
//! ten reloads retained about 0.5 MB: the whole table's lookup (250 kB),
//! filed by the first derive, and a copy of the order (227 kB) from the
//! first delta that admitted a token.
//!
//! A twin engine opened from the same file takes the same deltas first and
//! says what the served generation holds. The proof is the counting
//! allocator of `live_bytes`; this file holds exactly one test so no
//! concurrent test can perturb its counters.

#[path = "../../shard/tests/live_bytes/mod.rs"]
mod live_bytes;

use aeetes_cli::protocol::delta_value;
use aeetes_cli::serve::ServeOptions;
use aeetes_cli::session::{Reply, Server, Session};
use aeetes_cluster::Sink;
use aeetes_core::{open_frozen, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::{DictDelta, ShardedEngine};
use aeetes_text::EntityId;
use serde_json::{json, Value};
use std::time::Instant;

/// What a generation and a server hold beside the tail's arrays and the
/// appended entities, whatever the corpus: the generation's own fields,
/// `Arc` headers, the dictionary's and the rule table's part lists, the
/// server's reload counters.
const BOOKKEEPING: usize = 4 << 10;

/// A delta's transient beyond what it keeps, per variant of the origins it
/// derives (now and as they were), and whatever it changes: the request
/// line parsed, the derivations' scratch and the drafts.
const PER_VARIANT: usize = 256;
const PER_DELTA: usize = 32 << 10;

#[test]
fn ten_reloads_keep_their_entities_and_tail_not_the_dictionary() {
    const SET: usize = 32;
    let data = generate(&DatasetProfile::pubmed_like().with_docs(1), 12);
    let built = ShardedEngine::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default(), 2);
    let path = std::env::temp_dir().join(format!("aeetes-reload-peak-{}.aeet", std::process::id()));
    std::fs::write(&path, built.freeze()).expect("write the artifact");
    drop(built);
    let open = || ShardedEngine::from_frozen(open_frozen(&path).expect("open"), None).expect("adopt");
    let n = data.dictionary.len();
    // The benchmark's deltas: sets of dictionary vocabulary, the first half
    // of one entity and the second half of another.
    let deltas: Vec<DictDelta> = (0..10)
        .map(|round| DictDelta {
            add_entities: (round * SET..(round + 1) * SET)
                .map(|k| {
                    let (a, b) = (data.dictionary.entity(EntityId((k * 7 % n) as u32)), data.dictionary.entity(EntityId(((k * 13 + 5) % n) as u32)));
                    data.interner.render(&[&a[..a.len().div_ceil(2)], &b[b.len() / 2..]].concat())
                })
                .collect(),
            remove_entities: match round {
                0 => Vec::new(),
                _ => (n + (round - 1) * SET..n + round * SET).map(|e| EntityId(e as u32)).collect(),
            },
            add_rules: Vec::new(),
        })
        .collect();
    let lines: Vec<String> = deltas
        .iter()
        .enumerate()
        .map(|(round, delta)| {
            let Value::Object(mut body) = delta_value(delta) else {
                unreachable!("delta_value builds an object")
            };
            body.insert("type".into(), json!("reload"));
            body.insert("id".into(), json!(format!("reload-{round}")));
            Value::Object(body).to_string()
        })
        .collect();

    // The twin: what the served engine will hold after each delta.
    let twin = open();
    let base = twin.snapshot();
    let (bases, base_variants, base_rules, base_key) =
        (base.index_size_bytes(), base.variants(), base.rules().owned_bytes(), base.order().raw_parts().0.as_ptr());
    drop(base);
    let mut worst = 0;
    let mut last_variants = 0;
    for delta in &deltas {
        let variants = twin.apply_update(delta, &data.tokenizer).expect("delta applies").variants() - base_variants;
        worst = worst.max(variants + last_variants);
        last_variants = variants;
    }
    let last = twin.snapshot();
    assert_eq!(last.rules().owned_bytes(), base_rules, "the rule table keeps no lookup");
    assert_eq!(last.order().raw_parts().0.as_ptr(), base_key, "the order shares the mapped key array");
    let extended = last.order().overlay_bytes();
    let tail_index = last.index_size_bytes() - bases;
    let tail_table = 4 * (SET + 1) + 8 * (last.variants() - base_variants);
    let appended = last.dictionary().owned_bytes();
    let generation = appended + tail_index + tail_table + 4 * last.removed().len() + extended + BOOKKEEPING;
    let budget = generation;
    let draft_tables = PER_VARIANT * worst + PER_DELTA;

    let server = Server::new(open(), &ServeOptions::default(), 1).expect("server");
    let mut session = Session::new(server, Sink::new(std::io::sink()));
    let (acks, retained, peak) = live_bytes::measured(|| {
        lines
            .iter()
            .map(|line| match session.handle(Ok(line), Instant::now()) {
                Reply::Line(ack) => ack,
                _ => panic!("a reload is answered inline"),
            })
            .collect::<Vec<String>>()
    });
    let acks_bytes: usize = acks.iter().map(String::capacity).sum();
    for (round, ack) in acks.iter().enumerate() {
        assert!(ack.contains("\"status\":\"ok\""), "reload {round} failed: {ack}");
    }
    let retained = retained - acks_bytes;
    assert!(
        retained <= budget,
        "ten reloads retain {retained} bytes, beyond {budget} bytes: {appended} of appended entities, {tail_index} of tail index, \
         {tail_table} of tail table, {extended} of order overlay and bookkeeping"
    );
    // Above that, a reload holds the generation it replaces — its tail and
    // appended entities, no more than the last one's — and its drafts.
    let over = peak - retained - acks_bytes;
    assert!(
        over <= generation + draft_tables,
        "ten reloads peak {over} bytes above what they retain, beyond a generation's {generation} bytes and {draft_tables} bytes of one \
         delta's drafts"
    );
    println!(
        "reload_peak: ten reloads retain {retained} bytes of {budget} budgeted ({tail_index} tail index, {appended} appended, {extended} \
         order overlay) and peak {over} above it of {} budgeted",
        generation + draft_tables
    );
    drop((session, last, twin));
    std::fs::remove_file(&path).expect("remove the artifact");
}
