//! Correctness: the reference answers every workload is compared with, and
//! the comparison itself.
//!
//! The reference is the paper's unpruned baseline — monolithic
//! `Strategy::Simple` — computed once, outside every timed region. An
//! entity's answers depend on its own variants and on the dictionary-wide
//! range of set lengths (see [`simple_answers`]), on nothing else, so the
//! reference for a generation with update set `m` live is the base
//! dictionary's answers plus the answers of an engine holding just that
//! set, both under the range of the two together: exact, and cheap enough
//! to check *every* answer after *every* update. The decomposition is
//! itself checked once per run against a from-scratch rebuild
//! ([`rebuilt_reference_mismatches`]).

use crate::inputs::{Inputs, Live, TAU};
use aeetes_core::{extract_segment, Aeetes, AeetesConfig, ExtractLimits, Match, Strategy};
use aeetes_datagen::MentionForm;
use aeetes_sim::Metric;
use aeetes_text::{Dictionary, Document, Span};

/// Which dictionary entry an expected match names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntityRef {
    /// An entity of the base dictionary, by id.
    Base(u32),
    /// The `k`-th entity of the live update set (its id depends on the
    /// generation: [`Live::first_id`]` + k`).
    Added(u32),
}

/// One match the engine must report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpMatch {
    /// Token offset of the matched substring.
    pub start: u32,
    /// Its length in tokens.
    pub len: u32,
    /// The entity.
    pub entity: EntityRef,
    /// Exact JaccAR score.
    pub score: f64,
}

impl ExpMatch {
    fn resolve(&self, live: Option<Live>) -> u32 {
        match self.entity {
            EntityRef::Base(id) => id,
            EntityRef::Added(k) => live.expect("added entity expected without a live set").first_id + k,
        }
    }
}

/// A match as some path reported it, reduced to what is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GotMatch {
    /// Token offset.
    pub start: u32,
    /// Length in tokens.
    pub len: u32,
    /// Dictionary id.
    pub entity: u32,
    /// Reported score.
    pub score: f64,
}

impl From<&Match> for GotMatch {
    fn from(m: &Match) -> Self {
        GotMatch { start: m.span.start, len: m.span.len, entity: m.entity.0, score: m.score }
    }
}

/// Scores are compared after a JSON round trip on one path, so allow the
/// last bits to differ; a wrong score is off by at least `1 / (|e| · |s|)`.
const SCORE_EPS: f64 = 1e-9;

/// Whether `got` is exactly the expected answer: same matches, same order
/// (`(start, len, entity)`), same scores. A dropped, extra, moved or
/// mis-scored match all fail.
pub fn answers_match(got: impl ExactSizeIterator<Item = GotMatch>, expected: &[ExpMatch], live: Option<Live>) -> bool {
    got.len() == expected.len()
        && got
            .zip(expected)
            .all(|(g, e)| g.start == e.start && g.len == e.len && g.entity == e.resolve(live) && (g.score - e.score).abs() <= SCORE_EPS)
}

/// Describes the first difference between an answer and the reference, for
/// the run's stderr: a failed operation should say what failed.
pub fn describe_mismatch(got: &[GotMatch], expected: &[ExpMatch], live: Option<Live>) -> String {
    let want: Vec<GotMatch> = expected
        .iter()
        .map(|e| GotMatch { start: e.start, len: e.len, entity: e.resolve(live), score: e.score })
        .collect();
    let same = |g: &GotMatch, w: &GotMatch| (g.start, g.len, g.entity) == (w.start, w.len, w.entity) && (g.score - w.score).abs() <= SCORE_EPS;
    let sizes = format!("{} matches, expected {}", got.len(), want.len());
    match got.iter().zip(&want).position(|(g, w)| !same(g, w)) {
        Some(k) => format!("{sizes}; match {k}: got {:?}, expected {:?}", got[k], want[k]),
        None if got.len() < want.len() => format!("{sizes}; first missing {:?}", want[got.len()]),
        None => format!("{sizes}; first extra {:?}", got.get(want.len())),
    }
}

/// The reference answers of one run.
pub struct Reference {
    /// `base[j]`: expected matches of document `j` with no update set live.
    base: Vec<Vec<ExpMatch>>,
    /// `with_set[m][j]`: expected matches of document `j` with set `m` live.
    with_set: Vec<Vec<Vec<ExpMatch>>>,
    /// Share of datagen's exact and synonym gold mentions the base
    /// reference recovers at `TAU`.
    pub gold_recall: f64,
    /// Exact-form gold mentions the base reference missed; these score 1.0
    /// by construction, so any miss is a failed operation.
    pub exact_gold_missed: u64,
    /// Exact-form gold mentions checked.
    pub exact_gold: u64,
}

impl Reference {
    /// Expected matches of document `j` in the generation where `live` is
    /// the live update set.
    pub fn expected(&self, j: usize, live: Option<Live>) -> &[ExpMatch] {
        match live {
            None => &self.base[j],
            Some(l) => &self.with_set[l.set][j],
        }
    }
}

/// The `(min, max)` distinct-set length range of an engine's index.
type SetLenRange = Option<(usize, usize)>;

fn set_len_range(engine: &Aeetes) -> SetLenRange {
    engine.index().min_set_len().zip(engine.index().max_set_len())
}

fn union(a: SetLenRange, b: SetLenRange) -> SetLenRange {
    match (a, b) {
        (Some((a_lo, a_hi)), Some((b_lo, b_hi))) => Some((a_lo.min(b_lo), a_hi.max(b_hi))),
        (x, None) | (None, x) => x,
    }
}

/// Simple-strategy answers of `engine` on `doc`, with window enumeration
/// bounded by `range` — the range of the *whole* dictionary the answer is
/// for. It matters: the engine bounds a window's length in tokens by
/// `max set length ÷ τ`, so whether a window with a repeated token (whose
/// distinct set is shorter than the window) is enumerated at all depends on
/// the longest variant anywhere in the dictionary, not on the entity it
/// would match. An entity's answers are a function of its own variants
/// *and this range*; nothing else.
fn simple_answers(engine: &Aeetes, doc: &Document, range: SetLenRange) -> Vec<Match> {
    extract_segment(
        engine.index(),
        engine.derived(),
        doc,
        TAU,
        Strategy::Simple,
        Metric::Jaccard,
        false,
        range,
        &ExtractLimits::UNLIMITED,
        None,
    )
    .matches
}

fn expect(m: &Match, entity: EntityRef) -> ExpMatch {
    ExpMatch { start: m.span.start, len: m.span.len, entity, score: m.score }
}

/// Builds the monolithic reference engine over the base dictionary.
pub fn reference_engine(inputs: &Inputs) -> Aeetes {
    Aeetes::build(inputs.data.dictionary.clone(), &inputs.data.rules, &inputs.data.interner, AeetesConfig::default())
}

/// Computes the reference for every document and every update set.
pub fn compute_reference(inputs: &Inputs, engine: &Aeetes) -> Reference {
    let base_range = set_len_range(engine);
    let base_answers = |range: SetLenRange| -> Vec<Vec<ExpMatch>> {
        inputs
            .docs
            .iter()
            .map(|d| simple_answers(engine, d, range).iter().map(|m| expect(m, EntityRef::Base(m.entity.0))).collect())
            .collect()
    };
    let base = base_answers(base_range);

    let mut with_set = Vec::with_capacity(inputs.update_tokens.len());
    for set in &inputs.update_tokens {
        let mut dict = Dictionary::new();
        for tokens in set {
            dict.push_tokens(inputs.data.interner.render(tokens), tokens.clone());
        }
        let tiny = Aeetes::build(dict, &inputs.data.rules, &inputs.data.interner, AeetesConfig::default());
        // The generation with this set live holds the base dictionary and
        // the set; both halves are answered under that dictionary's range.
        let range = union(base_range, set_len_range(&tiny));
        let widened;
        let base_under_range = if range == base_range {
            &base
        } else {
            widened = base_answers(range);
            &widened
        };
        let per_doc: Vec<Vec<ExpMatch>> = inputs
            .docs
            .iter()
            .zip(base_under_range)
            .map(|(d, base_j)| {
                let mut merged = base_j.clone();
                merged.extend(simple_answers(&tiny, d, range).iter().map(|m| expect(m, EntityRef::Added(m.entity.0))));
                // Added ids lie after every base id, which is exactly how
                // `EntityRef` orders, so this is the engine's result order.
                merged.sort_by_key(|a| (a.start, a.len, a.entity));
                merged
            })
            .collect();
        with_set.push(per_doc);
    }

    // Recall of the planted gold: exact and synonym mentions are the forms
    // JaccAR is built to score 1.0 (a synonym mention can fall short only
    // where the derive cap dropped its rule combination).
    let (mut hit, mut total, mut exact, mut exact_missed) = (0u64, 0u64, 0u64, 0u64);
    for g in &inputs.data.gold {
        if !matches!(g.form, MentionForm::Exact | MentionForm::Synonym) {
            continue;
        }
        let found = base[g.doc].iter().any(|m| span_of(m) == g.span && m.entity == EntityRef::Base(g.entity.0));
        total += 1;
        hit += u64::from(found);
        if g.form == MentionForm::Exact {
            exact += 1;
            exact_missed += u64::from(!found);
        }
    }
    Reference {
        base,
        with_set,
        gold_recall: if total == 0 { 1.0 } else { hit as f64 / total as f64 },
        exact_gold_missed: exact_missed,
        exact_gold: exact,
    }
}

fn span_of(m: &ExpMatch) -> Span {
    Span::new(m.start as usize, m.len as usize)
}

/// The from-scratch oracle for one generation: a monolithic engine rebuilt
/// over the base dictionary plus the live set, Simple strategy, on the
/// first `sample` documents. Returns how many of them disagree with the
/// decomposed reference (0 is the only correct answer). Added entities are
/// pushed after the base ones, so entity `base_len + k` here is `Added(k)`.
pub fn rebuilt_reference_mismatches(inputs: &Inputs, reference: &Reference, live: Live, sample: usize) -> u64 {
    let mut dict = inputs.data.dictionary.clone();
    let base_len = dict.len() as u32;
    for tokens in &inputs.update_tokens[live.set] {
        dict.push_tokens(inputs.data.interner.render(tokens), tokens.clone());
    }
    let engine = Aeetes::build(dict, &inputs.data.rules, &inputs.data.interner, AeetesConfig::default());
    let as_rebuilt = Live { set: live.set, first_id: base_len };
    inputs
        .docs
        .iter()
        .take(sample)
        .enumerate()
        .filter(|(j, d)| {
            !answers_match(simple_answers(&engine, d, None).iter().map(GotMatch::from), reference.expected(*j, Some(as_rebuilt)), Some(as_rebuilt))
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate_inputs, Spec, UPDATE_SETS, WORKLOADS};

    fn exp(start: u32, len: u32, entity: EntityRef, score: f64) -> ExpMatch {
        ExpMatch { start, len, entity, score }
    }

    fn got(start: u32, len: u32, entity: u32, score: f64) -> GotMatch {
        GotMatch { start, len, entity, score }
    }

    #[test]
    fn the_check_fires_on_a_dropped_match_and_on_a_wrong_span() {
        let expected = [exp(3, 2, EntityRef::Base(7), 1.0), exp(9, 3, EntityRef::Base(2), 0.8)];
        let right = [got(3, 2, 7, 1.0), got(9, 3, 2, 0.8)];
        assert!(answers_match(right.iter().copied(), &expected, None));
        // Dropped match.
        assert!(!answers_match(right[..1].iter().copied(), &expected, None));
        // Wrong span: same entity and score, one token to the right.
        let moved = [got(3, 2, 7, 1.0), got(10, 3, 2, 0.8)];
        assert!(!answers_match(moved.iter().copied(), &expected, None));
        // Extra match, wrong entity, wrong score.
        let extra = [got(3, 2, 7, 1.0), got(9, 3, 2, 0.8), got(11, 2, 1, 1.0)];
        assert!(!answers_match(extra.iter().copied(), &expected, None));
        assert!(!answers_match([got(3, 2, 8, 1.0), got(9, 3, 2, 0.8)].iter().copied(), &expected, None));
        assert!(!answers_match([got(3, 2, 7, 1.0), got(9, 3, 2, 0.75)].iter().copied(), &expected, None));
        // A score that survived a JSON round trip still matches.
        assert!(answers_match([got(3, 2, 7, 1.0), got(9, 3, 2, 0.8 + 1e-13)].iter().copied(), &expected, None));
    }

    #[test]
    fn added_entities_resolve_against_the_live_generation() {
        let expected = [exp(5, 2, EntityRef::Base(1), 1.0), exp(5, 2, EntityRef::Added(3), 1.0)];
        let live = Live { set: 0, first_id: 20_064 };
        assert!(answers_match([got(5, 2, 1, 1.0), got(5, 2, 20_067, 1.0)].iter().copied(), &expected, Some(live)));
        // The id the previous generation gave that entity is now wrong.
        assert!(!answers_match([got(5, 2, 1, 1.0), got(5, 2, 20_035, 1.0)].iter().copied(), &expected, Some(live)));
    }

    #[test]
    fn decomposed_reference_equals_a_rebuild_and_finds_the_plants() {
        let spec = Spec { scale: 0.02, docs: 12, ..WORKLOADS[0].clone() };
        let inputs = generate_inputs(&spec, 12);
        let engine = reference_engine(&inputs);
        let reference = compute_reference(&inputs, &engine);
        assert_eq!(reference.exact_gold_missed, 0);
        assert!(reference.exact_gold > 0);
        for set in 0..UPDATE_SETS {
            let live = Live { set, first_id: 5_000 };
            assert_eq!(rebuilt_reference_mismatches(&inputs, &reference, live, inputs.docs.len()), 0);
            // The planted mention of a live set is an answer; with the set
            // not live it is not.
            for j in (set..inputs.docs.len()).step_by(UPDATE_SETS) {
                let planted = reference.expected(j, Some(live)).iter().filter(|m| matches!(m.entity, EntityRef::Added(_))).count();
                assert!(planted >= 1, "doc {j} misses its live plant");
                assert!(reference.expected(j, None).iter().all(|m| matches!(m.entity, EntityRef::Base(_))));
            }
        }
    }
}
