//! Property tests for tokenization, interning and the dictionary.

use aeetes_frozen::{pod_bytes, Arena, FrozenBuf, FrozenSlice, Pod};
use aeetes_text::{Dictionary, Document, EntityId, Interner, Span, TokenId, Tokenizer, TokenizerConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// A flat list of `(surface form, tokens)`: what a dictionary must answer.
type Model = Vec<(String, Vec<TokenId>)>;

/// The four flat arenas of `model`, as an artifact stores them.
fn flat(model: &Model) -> (Vec<u8>, Vec<u32>, Vec<TokenId>, Vec<u32>) {
    let (mut raws, mut raw_off, mut tokens, mut tok_off) = (Vec::new(), vec![0], Vec::new(), vec![0]);
    for (raw, toks) in model {
        raws.extend_from_slice(raw.as_bytes());
        raw_off.push(raws.len() as u32);
        tokens.extend_from_slice(toks);
        tok_off.push(tokens.len() as u32);
    }
    (raws, raw_off, tokens, tok_off)
}

/// `values` in an artifact image of their own, as a frozen arena.
fn frozen<T: Pod>(values: &[T]) -> Arena<T> {
    let bytes = pod_bytes(values);
    FrozenSlice::new(Arc::new(FrozenBuf::heap_from_bytes(bytes)), 0, bytes.len())
        .expect("an aligned image")
        .into()
}

/// Whether the runs `dictionary` is written from concatenate into `model`'s
/// arenas, and it answers every read as `model` does.
fn agrees(dictionary: &Dictionary, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(dictionary.len(), model.len());
    prop_assert_eq!(dictionary.is_empty(), model.is_empty());
    for (i, (raw, tokens)) in model.iter().enumerate() {
        let id = EntityId(i as u32);
        prop_assert_eq!(dictionary.entity(id), &tokens[..]);
        let record = dictionary.record(id);
        prop_assert_eq!((record.raw, record.tokens), (raw.as_str(), &tokens[..]));
    }
    let iterated: Vec<(u32, &str, &[TokenId])> = dictionary.iter().map(|(id, e)| (id.0, e.raw, e.tokens)).collect();
    let expected: Vec<(u32, &str, &[TokenId])> = model.iter().enumerate().map(|(i, (raw, tokens))| (i as u32, raw.as_str(), &tokens[..])).collect();
    prop_assert_eq!(iterated, expected);
    let mut written = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (raws, raw_off, tokens, tok_off) in dictionary.arena_runs() {
        written.0.extend_from_slice(raws);
        written.1.extend_from_slice(raw_off);
        written.2.extend_from_slice(tokens);
        written.3.extend_from_slice(tok_off);
    }
    prop_assert_eq!(written, flat(model));
    // Owned parts more than halve one to the next; an adopted first part
    // and an empty last one (room reserved, nothing pushed) come on top.
    let runs = dictionary.arena_runs().count();
    prop_assert!(runs <= 3 + (model.len() + 1).ilog2() as usize, "{} parts for {} entities", runs, model.len());
    Ok(())
}

/// One step over a set of live dictionaries, each beside its model; `at`
/// picks one of them, modulo how many there are.
#[derive(Debug, Clone)]
enum Step {
    /// Pushes an entity.
    Push(usize, String, Vec<u32>),
    /// Reserves exact room for a delta's entities, then pushes them, as an
    /// update does.
    Delta(usize, Vec<(String, Vec<u32>)>),
    /// Clones a dictionary: a new live one sharing its parts.
    Clone(usize),
    /// Drops a dictionary, unless it is the last one.
    Drop(usize),
}

fn entity() -> impl Strategy<Value = (String, Vec<u32>)> {
    ("\\PC{0,6}", proptest::collection::vec(0u32..40, 0..5))
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, 0usize..8, entity(), proptest::collection::vec(entity(), 0..12)).prop_map(|(kind, at, (raw, tokens), delta)| match kind {
        0..=3 => Step::Push(at, raw, tokens),
        4..=6 => Step::Delta(at, delta),
        7 | 8 => Step::Clone(at),
        _ => Step::Drop(at),
    })
}

fn ids(tokens: &[u32]) -> Vec<TokenId> {
    tokens.iter().map(|&t| TokenId(t)).collect()
}

proptest! {
    /// Token byte spans are in-bounds, non-empty, ascending and disjoint.
    #[test]
    fn token_spans_are_well_formed(text in "\\PC{0,120}") {
        let mut interner = Interner::new();
        let tokenizer = Tokenizer::default();
        let (ids, spans) = tokenizer.tokenize_spanned(&text, &mut interner);
        prop_assert_eq!(ids.len(), spans.len());
        let mut prev_end = 0usize;
        for (s, e) in &spans {
            let (s, e) = (*s as usize, *e as usize);
            prop_assert!(s < e, "empty span");
            prop_assert!(e <= text.len());
            prop_assert!(s >= prev_end, "spans overlap or go backwards");
            prop_assert!(text.is_char_boundary(s) && text.is_char_boundary(e));
            prev_end = e;
        }
    }

    /// Default config: every produced token is lowercase and alphanumeric.
    #[test]
    fn default_tokens_are_normalized(text in "\\PC{0,120}") {
        let mut interner = Interner::new();
        let ids = Tokenizer::default().tokenize(&text, &mut interner);
        for id in ids {
            let tok = interner.resolve(id);
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().all(char::is_alphanumeric), "{tok:?}");
            // Lowercasing is idempotent (some uppercase-category characters,
            // e.g. 𝕀, have no lowercase mapping and survive verbatim).
            let relowered: String = tok.chars().flat_map(char::to_lowercase).collect();
            prop_assert_eq!(relowered.as_str(), tok);
        }
    }

    /// Tokenizing the space-joined render of a token sequence reproduces
    /// exactly the same ids (render/tokenize round trip).
    #[test]
    fn render_tokenize_round_trip(words in proptest::collection::vec("[a-z][a-z0-9]{0,8}", 0..12)) {
        let mut interner = Interner::new();
        let tokenizer = Tokenizer::default();
        let joined = words.join(" ");
        let ids = tokenizer.tokenize(&joined, &mut interner);
        let rendered = interner.render(&ids);
        let again = tokenizer.tokenize(&rendered, &mut interner);
        prop_assert_eq!(ids, again);
    }

    /// Interning is idempotent and order-stable.
    #[test]
    fn interner_ids_stable(words in proptest::collection::vec("[a-zA-Z]{1,8}", 1..30)) {
        let mut a = Interner::new();
        let first: Vec<_> = words.iter().map(|w| a.intern(w)).collect();
        let second: Vec<_> = words.iter().map(|w| a.intern(w)).collect();
        prop_assert_eq!(&first, &second);
        // Rebuilding from iter_strings reproduces the same mapping.
        let mut b = Interner::new();
        for s in a.iter_strings() {
            b.intern(s);
        }
        for w in &words {
            prop_assert_eq!(a.get(w), b.get(w));
        }
    }

    /// `Document::text_of` always returns a substring of the raw text that
    /// itself re-tokenizes to the span's tokens.
    #[test]
    fn text_of_is_consistent(words in proptest::collection::vec("[a-z]{1,6}", 1..15), start in 0usize..10, len in 1usize..6) {
        let mut interner = Interner::new();
        let tokenizer = Tokenizer::default();
        let text = words.join(" ");
        let doc = Document::parse(&text, &tokenizer, &mut interner);
        prop_assume!(start + len <= doc.len());
        let span = Span::new(start, len);
        let sub = doc.text_of(span).expect("span in range");
        prop_assert!(text.contains(sub));
        let re = tokenizer.tokenize(sub, &mut interner);
        prop_assert_eq!(re.as_slice(), doc.slice(span));
    }

    /// strip_punctuation=false never produces more tokens than whitespace
    /// splitting, and both configs agree on pure [a-z ] input.
    #[test]
    fn config_variants_agree_on_clean_text(words in proptest::collection::vec("[a-z]{1,6}", 0..10)) {
        let text = words.join(" ");
        let mut i1 = Interner::new();
        let mut i2 = Interner::new();
        let t1 = Tokenizer::default();
        let t2 = Tokenizer::new(TokenizerConfig { lowercase: true, strip_punctuation: false });
        let a = t1.tokenize(&text, &mut i1);
        let b = t2.tokenize(&text, &mut i2);
        prop_assert_eq!(a.len(), b.len());
    }

    /// Over random pushes, deltas, clones and drops — which merge parts as
    /// they go — on a first part pushed, adopted from owned arenas or
    /// adopted from an artifact image, every live dictionary answers as a
    /// flat list does and is written as its flat arenas, also after a clone
    /// diverges from its source.
    #[test]
    fn dictionary_answers_as_a_flat_list(
        first in 0u8..3,
        initial in proptest::collection::vec(entity(), 0..40),
        steps in proptest::collection::vec(step(), 0..60),
    ) {
        let model: Model = initial.iter().map(|(raw, tokens)| (raw.clone(), ids(tokens))).collect();
        let (raws, raw_off, tokens, tok_off) = flat(&model);
        let dictionary = match first {
            0 => {
                let mut d = Dictionary::new();
                for (raw, tokens) in &model {
                    d.push_tokens(raw.clone(), tokens.clone());
                }
                d
            }
            1 => Dictionary::from_raw_arenas(raws.into(), raw_off.into(), tokens.into(), tok_off.into(), 40).expect("valid arenas"),
            _ => Dictionary::from_raw_arenas(frozen(&raws), frozen(&raw_off), frozen(&tokens), frozen(&tok_off), 40).expect("valid arenas"),
        };
        prop_assert_eq!(dictionary.owned_bytes() == 0, first == 2, "only an adopted image owns no heap byte");
        let mut live = vec![(dictionary, model)];
        for step in steps {
            let n = live.len();
            match step {
                Step::Push(at, raw, tokens) => {
                    let (d, m) = &mut live[at % n];
                    prop_assert_eq!(d.push_from(&raw, ids(&tokens).into_iter()), EntityId(m.len() as u32));
                    m.push((raw, ids(&tokens)));
                }
                Step::Delta(at, entities) => {
                    let (d, m) = &mut live[at % n];
                    let (tokens, bytes) = entities.iter().fold((0, 0), |(t, b), (raw, tokens)| (t + tokens.len(), b + raw.len()));
                    d.reserve_exact(entities.len(), tokens, bytes);
                    for (raw, tokens) in entities {
                        d.push_tokens(raw.clone(), ids(&tokens));
                        m.push((raw, ids(&tokens)));
                    }
                }
                Step::Clone(at) => {
                    let copy = live[at % n].clone();
                    live.push(copy);
                }
                Step::Drop(at) => {
                    if n > 1 {
                        live.swap_remove(at % n);
                    }
                }
            }
        }
        for (d, m) in &live {
            agrees(d, m)?;
        }
    }
}

/// A thousand deltas of 32 entities onto an adopted dictionary, each grown
/// from a clone of the one before as an update grows it: the adopted part
/// is never copied, the parts stay `O(log n)`, and the bytes copied into
/// fresh parts — the appended entities and their merges — stay within
/// `O(log n)` copies of each appended entity, never one copy of the
/// dictionary per delta.
#[test]
fn a_thousand_deltas_copy_each_appended_entity_a_logarithmic_number_of_times() {
    const DELTAS: usize = 1_000;
    const DELTA: usize = 32;
    let model: Model = (0..5_000).map(|i| (format!("entity number {i}"), ids(&[i % 40, (i / 40) % 40]))).collect();
    let (raws, raw_off, tokens, tok_off) = flat(&model);
    let adopted = Dictionary::from_raw_arenas(frozen(&raws), frozen(&raw_off), frozen(&tokens), frozen(&tok_off), 40).unwrap();
    let base = adopted.arena_runs().next().map(|run| run.0.as_ptr()).unwrap();
    let bytes = |run: (&[u8], &[u32], &[TokenId], &[u32])| run.0.len() + 4 * (run.1.len() + run.2.len() + run.3.len());
    let mut current = adopted;
    let (mut appended, mut copied) = (0usize, 0usize);
    for delta in 0..DELTAS {
        let mut next = current.clone();
        next.reserve_exact(DELTA, 2 * DELTA, 20 * DELTA);
        for i in 0..DELTA {
            let k = delta * DELTA + i;
            let raw = format!("delta entity {k}");
            // The surface form, two tokens and an entry in each offset table.
            appended += raw.len() + 4 * (2 + 2);
            next.push_tokens(raw, ids(&[k as u32 % 40, 7]));
        }
        // A run of the new dictionary is fresh unless the old one holds it.
        let shared: Vec<*const u8> = current.arena_runs().map(|run| run.0.as_ptr()).collect();
        copied += next.arena_runs().filter(|run| !shared.contains(&run.0.as_ptr())).map(bytes).sum::<usize>();
        let runs = next.arena_runs().count();
        assert!(runs <= 2 + next.len().ilog2() as usize, "delta {delta}: {runs} parts for {} entities", next.len());
        assert_eq!(next.arena_runs().next().map(|run| run.0.as_ptr()), Some(base), "delta {delta}: the adopted part is shared");
        current = next;
    }
    assert_eq!(current.len(), 5_000 + DELTAS * DELTA);
    let log = (DELTAS * DELTA).ilog2() as usize;
    assert!(copied <= 2 * log * appended, "{copied} bytes copied into fresh parts for {appended} bytes appended");
    assert!(current.owned_bytes() < 2 * appended, "the appended parts hold {} bytes", current.owned_bytes());
}
