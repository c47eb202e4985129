//! Generated dataset container, gold mentions and Table 1 statistics.

use aeetes_rules::{find_applications, select_non_conflict, RuleSet};
use aeetes_text::{Dictionary, Document, EntityId, Interner, Span, Tokenizer};

/// How a gold mention was planted in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MentionForm {
    /// Verbatim copy of the entity.
    Exact,
    /// Entity rewritten by one or more of its synonym rules — only
    /// synonym-aware extraction (JaccAR) can score these 1.0.
    Synonym,
    /// Entity with one extra token spliced into the middle
    /// (`Jaccard = n/(n+1)`): syntactically approximate.
    Noisy,
    /// Entity with a single-character typo in one token: only
    /// character-tolerant metrics (Fuzzy Jaccard) recover full similarity.
    Typo,
}

/// One hand-planted ground-truth mention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldMention {
    /// Document index into [`Dataset::documents`].
    pub doc: usize,
    /// Token span of the mention in that document.
    pub span: Span,
    /// The entity the mention refers to.
    pub entity: EntityId,
    /// How the mention was derived from the entity.
    pub form: MentionForm,
}

/// A complete synthetic corpus: dictionary, rules, documents and gold.
#[derive(Debug)]
pub struct Dataset {
    /// Profile name ("pubmed" / "dbworld" / "usjob").
    pub name: String,
    /// Interner shared by dictionary, rules and documents.
    pub interner: Interner,
    /// The tokenizer the corpus was built with.
    pub tokenizer: Tokenizer,
    /// The reference entity table `E0`.
    pub dictionary: Dictionary,
    /// The synonym rule table `R`.
    pub rules: RuleSet,
    /// The document collection.
    pub documents: Vec<Document>,
    /// Planted ground-truth mentions.
    pub gold: Vec<GoldMention>,
}

/// The measured Table 1 row of a generated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStatistics {
    /// Dataset name.
    pub name: String,
    /// Number of documents.
    pub docs: usize,
    /// Number of entities.
    pub entities: usize,
    /// Number of synonym rules.
    pub synonyms: usize,
    /// Average tokens per document.
    pub avg_doc_len: f64,
    /// Average tokens per entity.
    pub avg_entity_len: f64,
    /// Average applicable rules per entity (`avg |A(e)|`, all side
    /// occurrences, before conflict resolution — the Table 1 figure).
    pub avg_applicable: f64,
    /// Average rules surviving non-conflict selection per entity.
    pub avg_selected: f64,
}

impl Dataset {
    /// Computes the Table 1 statistics row.
    ///
    /// `sample` caps how many entities are inspected for the applicability
    /// averages (applicability scanning is `O(entities · rules-per-token)`);
    /// pass `usize::MAX` for an exact figure.
    pub fn statistics(&self, sample: usize) -> DatasetStatistics {
        let doc_tokens: usize = self.documents.iter().map(Document::len).sum();
        let ent_tokens: usize = self.dictionary.iter().map(|(_, e)| e.len()).sum();
        let take = sample.min(self.dictionary.len());
        let mut applicable = 0usize;
        let mut selected = 0usize;
        let lookup = self.rules.lookup(self.dictionary.iter().take(take).flat_map(|(_, e)| e.tokens.iter().copied()));
        for (_, e) in self.dictionary.iter().take(take) {
            applicable += find_applications(e.tokens, &lookup).len();
            selected += select_non_conflict(e.tokens, &lookup).iter().map(Vec::len).sum::<usize>();
        }
        let denom = take.max(1) as f64;
        DatasetStatistics {
            name: self.name.clone(),
            docs: self.documents.len(),
            entities: self.dictionary.len(),
            synonyms: self.rules.len(),
            avg_doc_len: doc_tokens as f64 / self.documents.len().max(1) as f64,
            avg_entity_len: ent_tokens as f64 / self.dictionary.len().max(1) as f64,
            avg_applicable: applicable as f64 / denom,
            avg_selected: selected as f64 / denom,
        }
    }

    /// Gold mentions of one document.
    pub fn gold_for(&self, doc: usize) -> impl Iterator<Item = &GoldMention> {
        self.gold.iter().filter(move |g| g.doc == doc)
    }
}
