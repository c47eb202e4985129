//! Pseudo-word vocabulary and Zipfian sampling.

use rand::Rng;

/// Generates pronounceable, unique pseudo-words.
///
/// Real token strings matter for the character-level baselines (Fuzzy
/// Jaccard, typo injection), so tokens are syllable-built words rather than
/// opaque ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct WordFactory {
    produced: usize,
}

const ONSETS: [&str; 18] = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "st", "tr"];
const VOWELS: [&str; 6] = ["a", "e", "i", "o", "u", "ia"];
const CODAS: [&str; 8] = ["", "", "n", "r", "s", "l", "x", "m"];

impl WordFactory {
    /// Creates a factory.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Produces the next pseudo-word using `rng` for shape decisions.
    /// Uniqueness is guaranteed by a base-N counter suffix woven into the
    /// syllables, so two calls never collide.
    pub(crate) fn word<R: Rng>(&mut self, rng: &mut R) -> String {
        let mut w = String::new();
        let syllables = rng.gen_range(2..=3);
        for _ in 0..syllables {
            w.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
            w.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
        }
        w.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
        // Disambiguating tail: encode the counter as lowercase letters.
        let mut n = self.produced;
        self.produced += 1;
        w.push('q');
        loop {
            w.push((b'a' + (n % 26) as u8) as char);
            n /= 26;
            if n == 0 {
                break;
            }
        }
        w
    }

    /// Produces `n` words.
    pub(crate) fn words<R: Rng>(&mut self, n: usize, rng: &mut R) -> Vec<String> {
        (0..n).map(|_| self.word(rng)).collect()
    }
}

/// Zipf-distributed index sampler over `0..n` with exponent `s`:
/// `P(k) ∝ 1 / (k+1)^s`.
#[derive(Debug, Clone)]
pub(crate) struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` items (`n ≥ 1`).
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "ZipfSampler needs at least one item");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    /// Samples an index in `0..n`; index 0 is the most frequent.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn words_are_unique() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut f = WordFactory::new();
        let words = f.words(5_000, &mut rng);
        let set: HashSet<&String> = words.iter().collect();
        assert_eq!(set.len(), words.len());
    }

    #[test]
    fn words_are_lowercase_alpha() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut f = WordFactory::new();
        for w in f.words(100, &mut rng) {
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{w}");
            assert!(w.len() >= 3);
        }
    }

    #[test]
    fn zipf_head_is_heavier() {
        let mut rng = SmallRng::seed_from_u64(9);
        let z = ZipfSampler::new(1000, 1.05);
        let mut counts = vec![0usize; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[99] * 5, "rank-0 ≫ rank-99: {} vs {}", counts[0], counts[99]);
        assert!(counts[0] > counts[500].max(1) * 20);
    }

    #[test]
    fn zipf_sample_in_range() {
        let mut rng = SmallRng::seed_from_u64(10);
        let z = ZipfSampler::new(5, 1.0);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 5);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let z = ZipfSampler::new(50, 1.1);
        let a: Vec<usize> = {
            let mut rng = SmallRng::seed_from_u64(3);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = SmallRng::seed_from_u64(3);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
