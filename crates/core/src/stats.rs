//! Extraction statistics (drives the paper's Figure 11 metric).

use std::ops::AddAssign;

/// Counters recorded during one (or more, when accumulated) extractions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Index entries read during candidate generation — the paper's "number
    /// of accessed entries" (Figure 11). An entry is one `(token, set length,
    /// origin)` cluster, decided by one compare, however many of the origin's
    /// variants it stands for.
    pub accessed_entries: u64,
    /// Candidate `(substring, entity)` pairs sent to verification.
    pub candidates: u64,
    /// Derived-entity similarity computations performed during verification:
    /// one per variant whose overlap with the window was computed. A
    /// candidate's variants past the length and prefix filters count, unless
    /// the candidate was settled for its whole origin at once — all its
    /// variants' keys together share too few with the window — and none was
    /// looked at.
    pub verifications: u64,
    /// Result pairs with `JaccAR ≥ τ`.
    pub matches: u64,
    /// Prefixes computed from scratch (Simple / Skip).
    pub prefix_builds: u64,
    /// Incremental prefix updates — Window Extend / Migrate (Dynamic / Lazy).
    pub prefix_updates: u64,
    /// Substrings enumerated.
    pub substrings: u64,
    /// Windows (start positions) visited.
    pub windows: u64,
}

impl AddAssign for ExtractStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accessed_entries += rhs.accessed_entries;
        self.candidates += rhs.candidates;
        self.verifications += rhs.verifications;
        self.matches += rhs.matches;
        self.prefix_builds += rhs.prefix_builds;
        self.prefix_updates += rhs.prefix_updates;
        self.substrings += rhs.substrings;
        self.windows += rhs.windows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = ExtractStats { accessed_entries: 1, candidates: 2, ..Default::default() };
        let b = ExtractStats { accessed_entries: 10, matches: 3, ..Default::default() };
        a += b;
        assert_eq!(a.accessed_entries, 11);
        assert_eq!(a.candidates, 2);
        assert_eq!(a.matches, 3);
    }
}
