//! File export: write a generated dataset in the CLI's text formats.

use crate::dataset::Dataset;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Writes `dataset` into `dir` as the four files the `aeetes` CLI consumes:
///
/// * `dict.txt` — one entity per line;
/// * `rules.tsv` — `lhs <TAB> rhs <TAB> weight`;
/// * `docs.txt` — one document per line (tokens space-joined);
/// * `gold.tsv` — `doc <TAB> start <TAB> len <TAB> entity <TAB> form`
///   (ground truth for scoring extraction output).
///
/// Returns the number of files written.
pub fn write_files(dataset: &Dataset, dir: &Path) -> std::io::Result<usize> {
    fs::create_dir_all(dir)?;

    let mut dict = fs::File::create(dir.join("dict.txt"))?;
    for (_, e) in dataset.dictionary.iter() {
        writeln!(dict, "{}", e.raw)?;
    }

    let mut rules = fs::File::create(dir.join("rules.tsv"))?;
    for (_, r) in dataset.rules.iter() {
        writeln!(rules, "{}\t{}\t{}", dataset.interner.render(r.lhs), dataset.interner.render(r.rhs), r.weight)?;
    }

    let mut docs = fs::File::create(dir.join("docs.txt"))?;
    for d in &dataset.documents {
        writeln!(docs, "{}", dataset.interner.render(d.tokens()))?;
    }

    let mut gold = fs::File::create(dir.join("gold.tsv"))?;
    for g in &dataset.gold {
        writeln!(gold, "{}\t{}\t{}\t{}\t{:?}", g.doc, g.span.start, g.span.len, g.entity.0, g.form)?;
    }

    Ok(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetProfile};

    #[test]
    fn writes_all_four_files_with_content() {
        let data = generate(&DatasetProfile::pubmed_like().scaled(0.005), 3);
        let dir = std::env::temp_dir().join(format!("aeetes-export-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let written = write_files(&data, &dir).expect("export");
        assert_eq!(written, 4);
        for (file, min_lines) in [
            ("dict.txt", data.dictionary.len()),
            ("rules.tsv", data.rules.len()),
            ("docs.txt", data.documents.len()),
            ("gold.tsv", 1),
        ] {
            let body = fs::read_to_string(dir.join(file)).unwrap();
            assert!(body.lines().count() >= min_lines, "{file}: too few lines");
        }
        // rules.tsv must round-trip through the CLI's parser conventions.
        let body = fs::read_to_string(dir.join("rules.tsv")).unwrap();
        for line in body.lines() {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 3, "rule line: {line}");
            let w: f64 = cols[2].parse().unwrap();
            assert!(w > 0.0 && w <= 1.0);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
