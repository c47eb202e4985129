//! The corpus generator.

use crate::dataset::{Dataset, GoldMention, MentionForm};
use crate::profile::DatasetProfile;
use crate::vocab::{WordFactory, ZipfSampler};
use aeetes_rules::{select_non_conflict, RuleLookup, RuleSet};
use aeetes_text::{Dictionary, Document, EntityId, Interner, Span, TokenId, Tokenizer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a full synthetic dataset for `profile`, deterministically from
/// `seed`.
pub fn generate(profile: &DatasetProfile, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();
    let mut words = WordFactory::new();

    // ---- Vocabularies ----
    let entity_vocab: Vec<TokenId> = words.words(profile.entity_vocab, &mut rng).into_iter().map(|w| interner.intern(&w)).collect();
    let background_vocab: Vec<TokenId> = words.words(profile.background_vocab, &mut rng).into_iter().map(|w| interner.intern(&w)).collect();
    let zipf = ZipfSampler::new(entity_vocab.len(), profile.zipf_exponent);
    let bg_zipf = ZipfSampler::new(background_vocab.len(), 1.0);

    // ---- Entities (distinct token sequences) ----
    let mut dictionary = Dictionary::new();
    let mut seen_entities: std::collections::HashSet<Vec<TokenId>> = std::collections::HashSet::new();
    for _ in 0..profile.entities {
        let mut tokens = Vec::new();
        for attempt in 0..20 {
            let len = sample_len(profile.avg_entity_len, profile.max_entity_len, &mut rng).max(profile.min_entity_len);
            tokens.clear();
            while tokens.len() < len {
                let t = entity_vocab[zipf.sample(&mut rng)];
                if !tokens.contains(&t) {
                    tokens.push(t);
                }
            }
            if seen_entities.insert(tokens.clone()) || attempt == 19 {
                break;
            }
        }
        let raw = interner.render(&tokens);
        dictionary.push_tokens(raw, tokens);
    }

    // Adjacent-pair set of the dictionary: used both for rule anchoring and
    // to keep the background from accidentally assembling entity bigrams.
    let mut entity_pairs: std::collections::HashSet<(TokenId, TokenId)> = std::collections::HashSet::new();
    for (_, e) in dictionary.iter() {
        for w in e.tokens.windows(2) {
            entity_pairs.insert((w[0], w[1]));
        }
    }

    // ---- Synonym rules (self-calibrating to `target_applicable`) ----
    // Every candidate lhs is a single entity token or an adjacent entity
    // token pair, so its exact contribution to the total applicable-rule
    // count is its entity frequency; generation keeps adding rule groups
    // (one lhs, ≥1 rhs alternatives) until the measured avg |A(e)| reaches
    // the profile's Table 1 target.
    let mut rules = RuleSet::new();
    let expansion_vocab: Vec<TokenId> = words
        .words((profile.rule_groups * 2).max(16), &mut rng)
        .into_iter()
        .map(|w| interner.intern(&w))
        .collect();
    {
        // Entity frequency of each vocabulary token and of adjacent pairs.
        let mut tok_freq: std::collections::HashMap<TokenId, u64> = std::collections::HashMap::new();
        let mut pair_freq: std::collections::HashMap<(TokenId, TokenId), u64> = std::collections::HashMap::new();
        for (_, e) in dictionary.iter() {
            for &t in e.tokens {
                *tok_freq.entry(t).or_insert(0) += 1; // tokens are distinct per entity
            }
            for w in e.tokens.windows(2) {
                *pair_freq.entry((w[0], w[1])).or_insert(0) += 1;
            }
        }
        let target_total = (profile.target_applicable * dictionary.len() as f64) as u64;
        let max_groups = profile.rule_groups * 40 + 64;
        let mut total = 0u64;
        let mut groups = 0usize;
        while total < target_total && groups < max_groups {
            groups += 1;
            let remaining = target_total - total;
            // When close to the target, switch to adjacent-pair lhs (adds
            // only a handful of applications each) for a soft landing.
            let coarse = remaining > target_total / 10 + 8;
            let (lhs, freq) = if coarse && rng.gen_bool(profile.rule_head_bias) {
                // A moderately frequent single token: uniform over a band
                // below the extreme head to avoid thousand-entity jumps.
                let band_lo = entity_vocab.len() / 200;
                let band_hi = (entity_vocab.len() / 6).max(band_lo + 1);
                let t = entity_vocab[rng.gen_range(band_lo..band_hi)];
                (vec![t], tok_freq.get(&t).copied().unwrap_or(0))
            } else {
                // An adjacent token pair from a random entity.
                let e = dictionary.entity(EntityId(rng.gen_range(0..dictionary.len()) as u32));
                if e.len() < 2 {
                    let t = e.first().copied();
                    match t {
                        Some(t) if coarse => (vec![t], tok_freq.get(&t).copied().unwrap_or(0)),
                        _ => continue,
                    }
                } else {
                    let p = rng.gen_range(0..e.len() - 1);
                    let pair = (e[p], e[p + 1]);
                    (vec![pair.0, pair.1], pair_freq.get(&pair).copied().unwrap_or(0))
                }
            };
            if freq == 0 {
                continue;
            }
            // Avoid one group overshooting the whole remaining budget badly.
            if freq > remaining.saturating_mul(4) && groups < max_groups / 2 {
                continue;
            }
            let alt_cap = (profile.alternatives_per_rule * 3.0).ceil() as usize;
            let alternatives = sample_len(profile.alternatives_per_rule, alt_cap.max(4), &mut rng).max(1);
            for _ in 0..alternatives {
                let rlen = rng.gen_range(1..=3);
                let mut rhs = Vec::with_capacity(rlen);
                for _ in 0..rlen {
                    rhs.push(expansion_vocab[rng.gen_range(0..expansion_vocab.len())]);
                }
                if rules.push_tokens(&lhs, &rhs, 1.0).is_ok() {
                    total += freq;
                }
            }
        }
    }

    // ---- Documents with planted mentions ----
    let mut documents = Vec::with_capacity(profile.docs);
    let mut gold = Vec::new();
    let ent_sampler = ZipfSampler::new(dictionary.len(), 0.8);
    let lookup = rules.lookup_all();
    for doc_id in 0..profile.docs {
        let target_len = sample_len(profile.avg_doc_len as f64, profile.avg_doc_len * 3, &mut rng).max(8);
        let mut tokens: Vec<TokenId> = Vec::with_capacity(target_len + 16);
        let mentions = sample_len(profile.mentions_per_doc, 20, &mut rng);
        // Split the background into `mentions + 1` chunks with mentions in
        // the gaps, guaranteeing ≥ 1 background token between mentions so
        // gold spans never touch.
        // Mentions are inserted on top of the background, so the background
        // budget excludes the expected mention tokens to keep avg |d| on
        // target.
        let mention_budget = (mentions as f64 * profile.avg_entity_len).round() as usize;
        let chunk = (target_len.saturating_sub(mention_budget).max(mentions + 1)) / (mentions + 1);
        for _ in 0..mentions {
            append_background(&mut tokens, chunk.max(1), &background_vocab, &bg_zipf, &entity_vocab, &zipf, &entity_pairs, &mut rng);
            // One guaranteed non-dictionary token on each side keeps the
            // planted span's boundaries unambiguous.
            tokens.push(background_vocab[bg_zipf.sample(&mut rng)]);
            let entity = EntityId(ent_sampler.sample(&mut rng) as u32);
            if let Some((mention, form)) = render_mention(&dictionary, &lookup, entity, &background_vocab, &bg_zipf, &mut interner, &mut rng) {
                let span = Span::new(tokens.len(), mention.len());
                tokens.extend_from_slice(&mention);
                tokens.push(background_vocab[bg_zipf.sample(&mut rng)]);
                gold.push(GoldMention { doc: doc_id, span, entity, form });
            }
        }
        append_background(&mut tokens, chunk.max(1), &background_vocab, &bg_zipf, &entity_vocab, &zipf, &entity_pairs, &mut rng);
        documents.push(Document::from_tokens(tokens));
    }

    Dataset {
        name: profile.name.clone(),
        interner,
        tokenizer,
        dictionary,
        rules,
        documents,
        gold,
    }
}

/// Appends `n` background tokens; ~30% of them are drawn from the entity
/// vocabulary — real corpora are dense in dictionary tokens (common words
/// appear in some entity of a large dictionary), which is precisely what
/// makes unfiltered inverted-list merging expensive and prefix filtering
/// valuable.
#[allow(clippy::too_many_arguments)]
fn append_background(
    out: &mut Vec<TokenId>,
    n: usize,
    background: &[TokenId],
    bg_zipf: &ZipfSampler,
    entity_vocab: &[TokenId],
    zipf: &ZipfSampler,
    entity_pairs: &std::collections::HashSet<(TokenId, TokenId)>,
    rng: &mut SmallRng,
) {
    for _ in 0..n {
        let mut tok = if rng.gen_bool(0.3) {
            entity_vocab[zipf.sample(rng)]
        } else {
            background[bg_zipf.sample(rng)]
        };
        // Avoid accidentally assembling a dictionary bigram (which would be
        // a legitimate extraction but a false positive against the planted
        // gold); a couple of resamples keeps the distribution intact.
        for _ in 0..4 {
            let forms_pair = out.last().is_some_and(|&p| entity_pairs.contains(&(p, tok)));
            if !forms_pair {
                break;
            }
            tok = background[bg_zipf.sample(rng)];
        }
        out.push(tok);
    }
}

/// Renders one mention of `entity` in a randomly chosen form.
fn render_mention(
    dictionary: &Dictionary,
    rules: &RuleLookup<'_>,
    entity: EntityId,
    background: &[TokenId],
    bg_zipf: &ZipfSampler,
    interner: &mut Interner,
    rng: &mut SmallRng,
) -> Option<(Vec<TokenId>, MentionForm)> {
    let tokens = dictionary.entity(entity);
    if tokens.is_empty() {
        return None;
    }
    let roll: f64 = rng.gen();
    if roll < 0.35 {
        // Synonym-rewritten: apply one random rule from each of a random
        // subset of the non-conflict groups.
        let groups = select_non_conflict(tokens, rules);
        if !groups.is_empty() {
            let mut chosen = Vec::with_capacity(groups.len());
            for g in &groups {
                if rng.gen_bool(0.7) {
                    chosen.push(g[rng.gen_range(0..g.len())]);
                }
            }
            if chosen.is_empty() {
                let g = &groups[rng.gen_range(0..groups.len())];
                chosen.push(g[rng.gen_range(0..g.len())]);
            }
            chosen.sort_by_key(|a| a.start);
            let mut out = Vec::with_capacity(tokens.len() + 4);
            let mut pos = 0usize;
            for app in &chosen {
                out.extend_from_slice(&tokens[pos..app.start as usize]);
                out.extend_from_slice(rules.rules().other_side_of(app.rule, app.side));
                pos = app.end() as usize;
            }
            out.extend_from_slice(&tokens[pos..]);
            return Some((out, MentionForm::Synonym));
        }
        // No applicable rules: fall through to exact.
    } else if roll < 0.47 && tokens.len() >= 3 {
        // Noisy: one background token spliced into the middle.
        let mut out = tokens.to_vec();
        let at = rng.gen_range(1..out.len());
        out.insert(at, background[bg_zipf.sample(rng)]);
        return Some((out, MentionForm::Noisy));
    } else if roll < 0.53 {
        // Typo: mutate one character of one token.
        let mut out = tokens.to_vec();
        let at = rng.gen_range(0..out.len());
        let original = interner.resolve(out[at]).to_string();
        if original.len() >= 4 {
            let mut chars: Vec<char> = original.chars().collect();
            let i = rng.gen_range(0..chars.len());
            let replacement = (b'a' + rng.gen_range(0..26u8)) as char;
            if chars[i] != replacement {
                chars[i] = replacement;
                let mutated: String = chars.into_iter().collect();
                out[at] = interner.intern(&mutated);
                return Some((out, MentionForm::Typo));
            }
        }
        // Token too short / mutation collided: fall through to exact.
    }
    Some((tokens.to_vec(), MentionForm::Exact))
}

/// Samples a positive length with the given mean (geometric-ish shape),
/// capped at `max`.
fn sample_len(mean: f64, max: usize, rng: &mut SmallRng) -> usize {
    debug_assert!(mean > 0.0);
    // Sum of a base floor plus a geometric tail keeps the mean close to the
    // target while producing a realistic right-skewed distribution.
    let floor = mean.floor().max(1.0) as usize;
    let frac = mean - floor as f64;
    let mut len = floor;
    if rng.gen_bool(frac.clamp(0.0, 1.0)) {
        len += 1;
    }
    // Right-skew: occasionally extend.
    while len < max && rng.gen_bool(0.12) {
        len += 1;
    }
    // Occasionally shrink toward 1 to widen the left tail.
    if len > 1 && rng.gen_bool(0.18) {
        len -= 1;
    }
    len.clamp(1, max.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(profile: DatasetProfile) -> Dataset {
        generate(&profile.scaled(0.02), 42)
    }

    #[test]
    fn generates_all_parts() {
        let d = small(DatasetProfile::pubmed_like());
        assert!(!d.documents.is_empty());
        assert!(!d.dictionary.is_empty());
        assert!(!d.rules.is_empty());
        assert!(!d.gold.is_empty());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small(DatasetProfile::dbworld_like());
        let b = small(DatasetProfile::dbworld_like());
        assert_eq!(a.gold, b.gold);
        assert_eq!(a.documents.len(), b.documents.len());
        for (x, y) in a.documents.iter().zip(&b.documents) {
            assert_eq!(x.tokens(), y.tokens());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&DatasetProfile::pubmed_like().scaled(0.02), 1);
        let b = generate(&DatasetProfile::pubmed_like().scaled(0.02), 2);
        assert_ne!(a.documents[0].tokens(), b.documents[0].tokens(), "different seeds should give different corpora");
    }

    #[test]
    fn gold_spans_are_in_bounds_and_disjoint() {
        let d = small(DatasetProfile::usjob_like());
        for doc in 0..d.documents.len() {
            let mut spans: Vec<Span> = d.gold_for(doc).map(|g| g.span).collect();
            spans.sort_by_key(|s| s.start);
            for s in &spans {
                assert!(s.end() <= d.documents[doc].len());
                assert!(s.len >= 1);
            }
            for w in spans.windows(2) {
                assert!(!w[0].overlaps(&w[1]), "gold mentions must not overlap: {w:?}");
            }
        }
    }

    #[test]
    fn exact_mentions_equal_entity_tokens() {
        let d = small(DatasetProfile::pubmed_like());
        for g in d.gold.iter().filter(|g| g.form == MentionForm::Exact) {
            let got = d.documents[g.doc].slice(g.span);
            assert_eq!(got, d.dictionary.entity(g.entity));
        }
    }

    #[test]
    fn noisy_mentions_are_entity_plus_one() {
        // Larger sample than `small()`: the noisy band is only ~7% of
        // mentions, so a dozen mentions can easily contain none.
        let d = generate(&DatasetProfile::usjob_like().scaled(0.1), 42);
        let mut seen = 0;
        for g in d.gold.iter().filter(|g| g.form == MentionForm::Noisy) {
            seen += 1;
            let got = d.documents[g.doc].slice(g.span);
            let ent = d.dictionary.entity(g.entity);
            assert_eq!(got.len(), ent.len() + 1);
        }
        assert!(seen > 0, "expected some noisy mentions");
    }

    #[test]
    fn statistics_land_near_profile() {
        let d = generate(&DatasetProfile::pubmed_like().scaled(0.05), 7);
        let s = d.statistics(500);
        assert!((s.avg_entity_len - 3.04).abs() < 0.8, "avg |e| = {}", s.avg_entity_len);
        assert!(s.avg_doc_len > 100.0 && s.avg_doc_len < 320.0, "avg |d| = {}", s.avg_doc_len);
        assert!(s.avg_applicable > 0.3, "rules should be applicable: {}", s.avg_applicable);
    }

    #[test]
    fn all_forms_appear_at_default_scale() {
        let d = generate(&DatasetProfile::pubmed_like().scaled(0.1), 11);
        for form in [MentionForm::Exact, MentionForm::Synonym, MentionForm::Noisy, MentionForm::Typo] {
            assert!(d.gold.iter().any(|g| g.form == form), "missing {form:?}");
        }
    }
}
