//! Property tests for tokenization, interning and the dictionary.

use aeetes_frozen::{pod_bytes, Arena, FrozenBuf, FrozenSlice, Pod};
use aeetes_text::{Dictionary, Document, EntityId, Interner, Span, TokenId, Tokenizer, TokenizerConfig};
use proptest::prelude::*;
use std::collections::HashMap;
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

/// One step over a set of live interners, each beside its model; `at` picks
/// one of them, modulo how many there are.
#[derive(Debug, Clone)]
enum InternStep {
    /// Interns a word.
    Intern(usize, String),
    /// Looks a word up without interning it.
    Get(usize, String),
    /// Clones an interner: a new live one sharing its adopted strings.
    Clone(usize),
    /// Drops an interner, unless it is the last one.
    Drop(usize),
}

/// Words over a few letters of one to four UTF-8 bytes, two differing only
/// in case, the empty one among them, so that steps meet words already
/// interned.
fn word() -> impl Strategy<Value = String> {
    "[aAé€😀]{0,3}"
}

fn intern_step() -> impl Strategy<Value = InternStep> {
    (0u8..10, 0usize..8, word()).prop_map(|(kind, at, w)| match kind {
        0..=4 => InternStep::Intern(at, w),
        5 | 6 => InternStep::Get(at, w),
        7 | 8 => InternStep::Clone(at),
        _ => InternStep::Drop(at),
    })
}

/// The strings in id order and the id of each: what an interner must answer.
#[derive(Debug, Clone, Default)]
struct InternModel {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl InternModel {
    fn intern(&mut self, s: &str) -> u32 {
        let next = self.strings.len() as u32;
        *self.ids.entry(s.to_owned()).or_insert_with(|| {
            self.strings.push(s.to_owned());
            next
        })
    }

    /// The byte arena and prefix offsets of the strings, as an artifact
    /// stores them.
    fn flat(&self) -> (Vec<u8>, Vec<u32>) {
        let (mut bytes, mut offsets) = (Vec::new(), vec![0u32]);
        for s in &self.strings {
            bytes.extend_from_slice(s.as_bytes());
            offsets.push(bytes.len() as u32);
        }
        (bytes, offsets)
    }
}

/// Whether `interner` answers every read as `model` does and is written as
/// its flat arenas.
fn interner_agrees(interner: &Interner, model: &InternModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(interner.len(), model.strings.len());
    prop_assert_eq!(interner.is_empty(), model.strings.is_empty());
    for (i, s) in model.strings.iter().enumerate() {
        prop_assert_eq!(interner.resolve(TokenId(i as u32)), s.as_str());
        prop_assert_eq!(interner.get(s), Some(TokenId(i as u32)));
    }
    for absent in ["b", "ab", "éa", "a€a€"] {
        prop_assert_eq!(interner.get(absent), model.ids.get(absent).map(|&i| TokenId(i)));
    }
    prop_assert!(interner.iter_strings().eq(model.strings.iter().map(String::as_str)));
    let all: Vec<TokenId> = (0..model.strings.len() as u32).rev().map(TokenId).collect();
    let rendered: Vec<&str> = model.strings.iter().rev().map(String::as_str).collect();
    prop_assert_eq!(interner.render(&all), rendered.join(" "));
    let mut written = (Vec::new(), Vec::new());
    for (bytes, offsets) in interner.arena_runs() {
        written.0.extend_from_slice(bytes);
        written.1.extend_from_slice(offsets);
    }
    prop_assert_eq!(written, model.flat());
    Ok(())
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

    /// The interner answers as a list of strings and a map to their ids:
    /// heap-built, over adopted arenas (owned or frozen) with strings
    /// interned past them, and as clones that then diverge. Ids stay dense
    /// and in first-seen order.
    #[test]
    fn interner_answers_as_a_map(
        first in 0u8..3,
        initial in proptest::collection::vec(word(), 0..30),
        steps in proptest::collection::vec(intern_step(), 0..80),
    ) {
        let mut model = InternModel::default();
        for w in &initial {
            model.intern(w);
        }
        let interner = match first {
            0 => {
                let mut interner = Interner::new();
                for w in &initial {
                    interner.intern(w);
                }
                interner
            }
            1 => {
                let (bytes, offsets) = model.flat();
                Interner::from_raw_arenas(bytes.into(), offsets.into()).expect("valid arenas")
            }
            _ => {
                let (bytes, offsets) = model.flat();
                Interner::from_raw_arenas(frozen(&bytes), frozen(&offsets)).expect("valid arenas")
            }
        };
        let mut live = vec![(interner, model)];
        for step in steps {
            let n = live.len();
            match step {
                InternStep::Intern(at, w) => {
                    let (interner, model) = &mut live[at % n];
                    prop_assert_eq!(interner.intern(&w), TokenId(model.intern(&w)));
                }
                InternStep::Get(at, w) => {
                    let (interner, model) = &live[at % n];
                    prop_assert_eq!(interner.get(&w), model.ids.get(&w).map(|&i| TokenId(i)));
                }
                InternStep::Clone(at) => {
                    let copy = live[at % n].clone();
                    live.push(copy);
                }
                InternStep::Drop(at) => {
                    if n > 1 {
                        live.swap_remove(at % n);
                    }
                }
            }
        }
        for (interner, model) in &live {
            interner_agrees(interner, model)?;
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

/// Bytes a slot takes in a table of `n` strings: it holds `i + 1` for
/// string `i`, in 16 bits while that fits.
fn slot_width(n: usize) -> usize {
    if n < 1 << 16 {
        2
    } else {
        4
    }
}

/// Heap bytes `interner` may own for its `n` strings of `bytes` bytes: the
/// flat arenas, a quarter of them spare, and the slots — a power of two of
/// them at least twice the strings, none while there is no string.
fn flat_size(bytes: usize, n: usize) -> usize {
    let slots = if n == 0 { 0 } else { (2 * n).next_power_of_two().max(8) };
    let arenas = bytes + 4 * (n + 1);
    arenas + arenas / 4 + slot_width(n) * slots
}

/// A heap-built interner owns at most its flat size at every length, and an
/// adopted one with nothing interned owns its slots and the one offset its
/// owned strings start at.
#[test]
fn an_interner_owns_its_flat_size() {
    let mut interner = Interner::new();
    let mut model = InternModel::default();
    for i in 0..5_000 {
        let s = if i % 7 == 0 { "é".repeat(i % 13) } else { format!("token {i}") };
        assert_eq!(interner.intern(&s), TokenId(model.intern(&s)));
        let bytes = model.strings.iter().map(String::len).sum();
        let n = model.strings.len();
        assert!(interner.owned_bytes() <= flat_size(bytes, n), "{} bytes owned for {n} strings of {bytes} bytes", interner.owned_bytes());
    }
    // A clone of a heap-built interner shares its owned table until it
    // interns a new string, and then copies it: the original is untouched.
    let first = |i: &Interner| i.arena_runs().next().map(|(bytes, _)| bytes.as_ptr());
    let mut copy = interner.clone();
    assert_eq!(first(&copy), first(&interner), "a clone shares the owned table");
    assert_eq!(copy.intern("token 8"), interner.get("token 8").expect("interned"), "a known string is found, not copied for");
    assert_eq!(first(&copy), first(&interner), "finding a string leaves the table shared");
    let fresh = copy.intern("a word only the copy holds");
    assert_ne!(first(&copy), first(&interner), "the first new string copies the table");
    assert_eq!((interner.get("a word only the copy holds"), copy.resolve(fresh)), (None, "a word only the copy holds"));
    assert_eq!(interner.len() + 1, copy.len());
    let (bytes, offsets) = model.flat();
    let adopted = Interner::from_raw_arenas(frozen(&bytes), frozen(&offsets)).expect("valid arenas");
    let slots = 2 * (2 * model.strings.len()).next_power_of_two();
    assert_eq!(adopted.owned_bytes(), slots + 4);
    assert_eq!(adopted.clone().owned_bytes(), slots + 4, "a clone shares the slots it counts");
    // A clone that interns a new word owns that word beside the shared
    // strings, not a copy of them.
    let mut grown = adopted.clone();
    assert_eq!(grown.intern("a new word"), TokenId(model.strings.len() as u32));
    assert_eq!(first(&grown), first(&adopted), "the adopted strings are shared");
    assert!(grown.owned_bytes() <= slots + flat_size("a new word".len(), 1));
}

/// A table's slots are 16-bit while its strings' `i + 1` fit and 32-bit
/// past that: at 65 534 and 65 535 strings 2 bytes a slot, at 65 536 and
/// more 4 — interned one by one (the table widens as the string that does
/// not fit arrives) or adopted from arenas — and every string is found at
/// each width, across the boundary.
#[test]
fn interner_slots_widen_past_16_bits() {
    let word = |i: usize| format!("w{i}");
    let mut interned = Interner::new();
    for n in [65_534, 65_535, 65_536, 65_537] {
        while interned.len() < n {
            interned.intern(&word(interned.len()));
        }
        let (mut bytes, mut offsets) = (Vec::new(), vec![0u32]);
        for i in 0..n {
            bytes.extend_from_slice(word(i).as_bytes());
            offsets.push(bytes.len() as u32);
        }
        let slots = (2 * n).next_power_of_two();
        let adopted = Interner::from_raw_arenas(frozen(&bytes), frozen(&offsets)).expect("valid arenas");
        assert_eq!(adopted.owned_bytes(), slot_width(n) * slots + 4, "{n} adopted strings");
        let arenas: usize = interned.arena_runs().map(|(b, o)| b.len() + 4 * o.len()).sum();
        let own = interned.owned_bytes();
        assert!(own >= arenas + slot_width(n) * slots, "{n} interned strings own {own} bytes");
        assert!(own <= arenas + arenas / 4 + slot_width(n) * slots, "{n} interned strings own {own} bytes");
        for i in (0..n).step_by(97).chain(n - 3..n) {
            let want = Some(TokenId(i as u32));
            assert_eq!((interned.get(&word(i)), adopted.get(&word(i))), (want, want), "{n} strings: {}", word(i));
        }
        assert_eq!((interned.get("absent"), adopted.get("absent")), (None, None));
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
