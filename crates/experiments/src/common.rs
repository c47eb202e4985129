//! Shared plumbing: CLI options, dataset cache, timing and result output.

use aeetes_core::{suppress_overlaps, Aeetes, AeetesConfig, Match, Strategy};
use aeetes_datagen::{generate, Dataset, DatasetProfile};
use aeetes_rules::RuleSet;
use aeetes_sim::fuzzy_jaccard;
use aeetes_text::{Document, Interner};
use parking_lot::Mutex;
use serde::Serialize;
use std::time::Instant;

/// Harness configuration (CLI flags).
#[derive(Debug)]
pub struct Config {
    /// Size multiplier applied to every profile (paper-scale = 1.0).
    pub scale: f64,
    /// RNG seed for dataset generation.
    pub seed: u64,
    /// Cap on documents measured per dataset (0 = all generated docs).
    pub docs: usize,
    /// Optional JSON output path; rows from all experiments accumulate.
    pub json_path: Option<String>,
    rows: Mutex<Vec<serde_json::Value>>,
}

impl Config {
    /// Parses `--scale F --seed N --docs N --json PATH` style flags.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut c = Self { scale: 0.1, seed: 42, docs: 0, json_path: None, rows: Mutex::new(Vec::new()) };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().map(|s| s.to_string()).ok_or_else(|| format!("flag {name} needs a value"));
            match flag.as_str() {
                "--scale" => c.scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
                "--seed" => c.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--docs" => c.docs = value("--docs")?.parse().map_err(|e| format!("--docs: {e}"))?,
                "--json" => c.json_path = Some(value("--json")?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if c.scale <= 0.0 || c.scale.is_nan() {
            return Err("--scale must be positive".into());
        }
        Ok(c)
    }

    /// The three paper datasets at the configured scale, generated in
    /// parallel (generation is deterministic per profile + seed).
    pub fn datasets(&self) -> Vec<Dataset> {
        let profiles: Vec<DatasetProfile> = DatasetProfile::all().into_iter().map(|p| p.scaled(self.scale)).collect();
        let out = Mutex::new(Vec::with_capacity(profiles.len()));
        crossbeam::scope(|s| {
            for (i, p) in profiles.iter().enumerate() {
                let out = &out;
                let seed = self.seed;
                s.spawn(move |_| {
                    let d = generate(p, seed);
                    out.lock().push((i, d));
                });
            }
        })
        .expect("generation threads");
        let mut v = out.into_inner();
        v.sort_by_key(|(i, _)| *i);
        v.into_iter().map(|(_, d)| d).collect()
    }

    /// The documents of `data` to measure (honours `--docs`).
    pub fn measured_docs<'a>(&self, data: &'a Dataset) -> &'a [Document] {
        let n = if self.docs == 0 {
            data.documents.len()
        } else {
            self.docs.min(data.documents.len())
        };
        &data.documents[..n]
    }

    /// Records a machine-readable result row.
    pub fn record<T: Serialize>(&self, experiment: &str, row: &T) {
        let mut v = serde_json::to_value(row).expect("serializable row");
        if let serde_json::Value::Object(m) = &mut v {
            m.insert("experiment".into(), serde_json::Value::String(experiment.into()));
        }
        self.rows.lock().push(v);
    }

    /// Writes accumulated rows to the `--json` path, if any.
    pub fn flush_json(&self) {
        let Some(path) = &self.json_path else { return };
        let rows = self.rows.lock();
        let body = serde_json::to_string_pretty(&*rows).expect("serializable rows");
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("\n[wrote {} result rows to {path}]", rows.len());
        }
    }
}

/// The thresholds of the paper's efficiency sweeps (Figures 9–11).
pub const TAUS: [f64; 5] = [0.7, 0.75, 0.8, 0.85, 0.9];

/// Milliseconds spent in `f`.
pub fn time_ms<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`reps` milliseconds for `f` (min over repetitions removes
/// allocator/scheduler noise from the small harness runs).
pub fn time_ms_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps.max(1)).map(|_| time_ms(&mut f)).fold(f64::INFINITY, f64::min)
}

/// Builds the synonym-aware engine for a dataset.
pub fn engine_with_rules(data: &Dataset) -> Aeetes {
    Aeetes::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default())
}

/// Builds the rule-less engine (plain syntactic Jaccard extraction).
pub fn engine_without_rules(data: &Dataset) -> Aeetes {
    Aeetes::build(data.dictionary.clone(), &RuleSet::new(), &data.interner, AeetesConfig::default())
}

/// Fuzzy-Jaccard extraction used by the Table 2 baseline: generate
/// candidates with the rule-less engine at a relaxed threshold, then
/// re-verify every candidate span with token-level Fuzzy Jaccard against
/// its origin entity (Fast-Join's metric, δ = 0.8).
pub fn fj_extract(engine: &Aeetes, doc: &Document, interner: &Interner, tau: f64) -> Vec<Match> {
    let relaxed = (tau * 0.6).max(0.30);
    let candidates = engine.extract(doc, relaxed);
    let mut out = Vec::new();
    for mut m in candidates {
        let ent: Vec<&str> = engine.dictionary().entity(m.entity).iter().map(|&t| interner.resolve(t)).collect();
        let sub: Vec<&str> = doc.slice(m.span).iter().map(|&t| interner.resolve(t)).collect();
        let score = fuzzy_jaccard(&ent, &sub, 0.8);
        if score >= tau {
            m.score = score;
            out.push(m);
        }
    }
    suppress_overlaps(out)
}

/// Precision / recall / F1 of retrieved `(entity, span)` pairs against the
/// gold mentions of one document.
#[derive(Debug, Default, Clone, Copy, Serialize)]
pub struct PrfCounts {
    /// True positives.
    pub tp: usize,
    /// Retrieved pairs that match no gold mention.
    pub fp: usize,
    /// Gold mentions never retrieved.
    pub fn_: usize,
}

impl PrfCounts {
    /// Accumulates one document's retrieval against its gold.
    pub fn tally(&mut self, retrieved: &[Match], gold: &[(aeetes_text::EntityId, aeetes_text::Span)]) {
        for m in retrieved {
            if gold.iter().any(|(e, s)| *e == m.entity && *s == m.span) {
                self.tp += 1;
            } else {
                self.fp += 1;
            }
        }
        for (e, s) in gold {
            if !retrieved.iter().any(|m| m.entity == *e && m.span == *s) {
                self.fn_ += 1;
            }
        }
    }

    /// Precision.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F-measure.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Extraction wrapped with overlap suppression (the evaluation protocol for
/// effectiveness experiments; see DESIGN.md).
pub fn extract_best(engine: &Aeetes, doc: &Document, tau: f64) -> Vec<Match> {
    suppress_overlaps(engine.extract(doc, tau))
}

/// Pretty milliseconds.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:8.1}")
    } else {
        format!("{ms:8.3}")
    }
}

/// The per-strategy list in the paper's ablation order.
pub const STRATEGIES: [Strategy; 4] = Strategy::ALL;
