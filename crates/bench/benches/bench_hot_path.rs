//! Hot-path bench: candidate generation with the dense-remap flat window
//! state versus the pre-refactor `BTreeMap` window representation.
//!
//! The baseline is a bench-local, faithful reimplementation of the old
//! `Dynamic` strategy: one `BTreeMap<u32, u32>` window per candidate
//! length, cloned along the Window Extend chain, prefixes collected into a
//! fresh `Vec` per substring, and a per-length scan cache storing owned
//! `Vec<EntityId>` scan results. The measured side is the production
//! [`generate_candidates`] hot path running in a reused
//! [`ExtractScratch`].
//!
//! Besides the criterion groups, wall-clock medians and the
//! baseline/dynamic speedup are written to `BENCH_hot_path.json` in the
//! workspace target directory. Setting `AEETES_BENCH_QUICK=1` skips the
//! criterion groups and runs a reduced wall-clock pass (the CI smoke
//! mode).

use aeetes_bench::{BENCH_SCALE, BENCH_SEED};
use aeetes_core::{generate_candidates, ExtractScratch, Strategy};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_index::{metric_window_bounds, ClusteredIndex, VALID_BIT};
use aeetes_rules::{DeriveConfig, DerivedDictionary};
use aeetes_sim::Metric;
use aeetes_text::{Document, EntityId, Span};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock seconds of `runs` invocations of `f`.
fn time_median<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[samples.len() / 2]
}

/// The old scan: clustered skips, but a fresh `Vec` + `HashSet` per scan.
fn scan_origins(index: &ClusteredIndex, key: u32, s_len: usize, tau: f64, metric: Metric) -> Vec<EntityId> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let t = index.order().token_of(key);
    let Some(tp) = index.postings(t) else { return out };
    let (lo, hi) = metric.length_bounds(s_len, tau, usize::MAX);
    let start = tp.first_group_at_least(lo);
    for g in tp.groups_from(start) {
        if g.len() > hi {
            break;
        }
        let plen = metric.prefix_len(g.len(), tau);
        for og in g.origins() {
            if seen.contains(&og.origin) {
                continue;
            }
            for &pos in og.positions {
                if (pos as usize) < plen {
                    seen.insert(og.origin);
                    out.push(og.origin);
                    break;
                }
            }
        }
    }
    out
}

/// The pre-refactor `Dynamic` candidate generation: `BTreeMap` window
/// states cloned along the extend chain, per-substring prefix `Vec`s, and
/// owned scan-result vectors in the per-length cache.
fn baseline_dynamic(index: &ClusteredIndex, doc: &Document, tau: f64, metric: Metric) -> Vec<(Span, EntityId)> {
    let mut pairs: Vec<(Span, EntityId)> = Vec::new();
    let Some(bounds) = metric_window_bounds(index.min_set_len(), index.max_set_len(), tau, metric) else {
        return pairs;
    };
    let order = index.order();
    let n = doc.len();
    let keys: Vec<u32> = doc.tokens().iter().map(|&t| order.key(t)).collect();
    let mut seen: HashSet<(u32, u32, u32)> = HashSet::new();
    let mut states: Vec<BTreeMap<u32, u32>> = Vec::new();
    let mut caches: Vec<HashMap<(u32, usize), Vec<EntityId>>> = Vec::new();
    for p in 0..n {
        let lmax = bounds.max.min(n - p);
        if bounds.min > lmax {
            break;
        }
        let fit = lmax - bounds.min + 1;
        if p == 0 {
            let mut w: BTreeMap<u32, u32> = BTreeMap::new();
            for &key in &keys[..bounds.min.min(n)] {
                *w.entry(key).or_insert(0) += 1;
            }
            states.push(w);
            caches.push(HashMap::new());
            for i in 1..fit {
                let mut w = states[i - 1].clone(); // the clone storm
                *w.entry(keys[bounds.min + i - 1]).or_insert(0) += 1;
                states.push(w);
                caches.push(HashMap::new());
            }
        } else {
            states.truncate(fit);
            caches.truncate(fit);
            for (i, w) in states.iter_mut().enumerate() {
                let l = bounds.min + i;
                match w.get_mut(&keys[p - 1]) {
                    Some(c) if *c > 1 => *c -= 1,
                    _ => {
                        w.remove(&keys[p - 1]);
                    }
                }
                *w.entry(keys[p + l - 1]).or_insert(0) += 1;
            }
        }
        for (i, w) in states.iter().enumerate() {
            let l = bounds.min + i;
            let span = Span::new(p, l);
            let s_len = w.len();
            let k = metric.prefix_len(s_len, tau);
            let prefix: Vec<u32> = w.keys().take(k).copied().collect();
            let cache = &mut caches[i];
            cache.retain(|&(key, _), _| prefix.binary_search(&key).is_ok());
            for &key in &prefix {
                if key & VALID_BIT == 0 {
                    continue; // invalid token: empty posting list
                }
                let origins = cache.entry((key, s_len)).or_insert_with(|| scan_origins(index, key, s_len, tau, metric));
                for &e in origins.iter() {
                    if seen.insert((span.start, span.len, e.0)) {
                        pairs.push((span, e));
                    }
                }
            }
        }
    }
    pairs
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("AEETES_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let data = generate(&DatasetProfile::pubmed_like().scaled(BENCH_SCALE), BENCH_SEED);
    let mut interner = data.interner.clone();
    // A small repetitive non-entity vocabulary: filler tokens never occur
    // in the dictionary, so they are invalid in the global order and every
    // window over a filler run is pure maintenance work.
    let noise: Vec<_> = (0..8).map(|i| interner.intern(&format!("filler{i}"))).collect();
    let tau = 0.6;
    let metric = Metric::Jaccard;
    let dd = DerivedDictionary::build(&data.dictionary, &data.rules, &DeriveConfig::default());
    let index = ClusteredIndex::build(&dd, &interner);
    // Sliding-window generation is a steady-state cost: concatenate runs of
    // dataset documents into longer documents, keeping mention-bearing text
    // intact but diluting it 1:4 with filler runs — the shape of real
    // prose, where most windows cover no entity at all.
    let docs: Vec<Document> = data
        .documents
        .chunks(6)
        .take(6)
        .map(|chunk| {
            let mut toks = Vec::new();
            for (j, d) in chunk.iter().enumerate() {
                toks.extend_from_slice(d.tokens());
                for i in 0..4 * d.len() {
                    toks.push(noise[(i + 7 * j) % noise.len()]);
                }
            }
            Document::from_tokens(toks)
        })
        .collect();
    let docs = &docs[..];

    // The baseline must stay a faithful reimplementation: same candidate
    // pairs, in the same discovery order, on every document.
    let mut check = ExtractScratch::new();
    for doc in docs {
        let (pairs, _) = generate_candidates(&index, doc, tau, metric, Strategy::Dynamic, &mut check);
        assert_eq!(baseline_dynamic(&index, doc, tau, metric), pairs, "baseline diverged from production candidates");
    }

    if !quick {
        let mut g = c.benchmark_group("hot_path");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(400));
        g.measurement_time(std::time::Duration::from_millis(1200));
        g.bench_function("candidates/btreemap_baseline", |b| {
            b.iter(|| {
                for doc in docs {
                    black_box(baseline_dynamic(&index, doc, tau, metric));
                }
            });
        });
        for (name, strategy) in [("dynamic", Strategy::Dynamic), ("lazy", Strategy::Lazy)] {
            let mut scratch = ExtractScratch::new();
            g.bench_function(format!("candidates/{name}"), |b| {
                b.iter(|| {
                    for doc in docs {
                        black_box(generate_candidates(&index, doc, tau, metric, strategy, &mut scratch).0.len());
                    }
                });
            });
        }
        g.finish();
    }

    // Wall-clock summary for BENCH_hot_path.json. Variants are sampled
    // round-robin (one batch each per round) so allocator and machine state
    // drift hits every variant equally, then summarized by per-variant
    // median.
    let runs = if quick { 9 } else { 21 };
    let mut dyn_scratch = ExtractScratch::new();
    let mut lazy_scratch = ExtractScratch::new();
    let mut samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..runs {
        samples[0].push(time_median(1, || {
            for doc in docs {
                black_box(baseline_dynamic(&index, doc, tau, metric));
            }
        }));
        samples[1].push(time_median(1, || {
            for doc in docs {
                black_box(generate_candidates(&index, doc, tau, metric, Strategy::Dynamic, &mut dyn_scratch).0.len());
            }
        }));
        samples[2].push(time_median(1, || {
            for doc in docs {
                black_box(generate_candidates(&index, doc, tau, metric, Strategy::Lazy, &mut lazy_scratch).0.len());
            }
        }));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
        v[v.len() / 2]
    };
    let baseline_s = median(&mut samples[0]);
    let dynamic_s = median(&mut samples[1]);
    let lazy_s = median(&mut samples[2]);
    let rows = [
        format!(
            "{{\"variant\": \"btreemap_baseline\", \"batch_s\": {:.6}, \"docs_per_s\": {:.2}}}",
            baseline_s,
            docs.len() as f64 / baseline_s
        ),
        format!(
            "{{\"variant\": \"dynamic\", \"batch_s\": {:.6}, \"docs_per_s\": {:.2}, \"speedup_vs_baseline\": {:.2}}}",
            dynamic_s,
            docs.len() as f64 / dynamic_s,
            baseline_s / dynamic_s
        ),
        format!(
            "{{\"variant\": \"lazy\", \"batch_s\": {:.6}, \"docs_per_s\": {:.2}, \"speedup_vs_baseline\": {:.2}}}",
            lazy_s,
            docs.len() as f64 / lazy_s,
            baseline_s / lazy_s
        ),
    ];
    eprintln!("hot path speedup (btreemap baseline / dense dynamic): {:.2}x", baseline_s / dynamic_s);

    let report = format!(
        "{{\n  \"bench\": \"hot_path\",\n  \"dataset\": \"{}\",\n  \"tau\": {tau},\n  \"docs\": {},\n  \"quick\": {quick},\n  \"speedup_dynamic\": {:.2},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        data.name,
        docs.len(),
        baseline_s / dynamic_s,
        rows.join(",\n    ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_hot_path.json");
    match std::fs::write(&out, &report) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
