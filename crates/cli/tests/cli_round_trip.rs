//! Integration tests for the CLI subcommands: build an engine from files,
//! run stats, and verify extraction output formats.

use aeetes_cli::commands;
use std::fs;
use std::path::PathBuf;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aeetes-cli-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

fn argv(parts: &[String]) -> Vec<String> {
    parts.to_vec()
}

fn s(x: &str) -> String {
    x.to_string()
}

#[test]
fn build_stats_extract_round_trip() {
    let dir = workdir("roundtrip");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "Purdue University USA\nUQ AU\nMIT\n").unwrap();
    fs::write(&rules, "UQ\tUniversity of Queensland\nAU\tAustralia\nMIT\tMassachusetts Institute of Technology\t0.95\n").unwrap();
    fs::write(&docs, "she visited purdue university usa then mit\nuniversity of queensland australia\n").unwrap();

    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .expect("build succeeds");
    // No flag but the three paths: the artifact is the one format.
    let info = aeetes_core::peek_info(&fs::read(&engine).unwrap()).expect("peek built artifact");
    assert_eq!(info.version, 9);

    commands::stats(&argv(&[s("--engine"), engine.display().to_string()])).expect("stats succeeds");

    for format in ["tsv", "jsonl"] {
        commands::extract(&argv(&[
            s("--engine"),
            engine.display().to_string(),
            s("--docs"),
            docs.display().to_string(),
            s("--tau"),
            s("0.8"),
            s("--best"),
            s("--format"),
            s(format),
        ]))
        .expect("extract succeeds");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn metric_flag_accepted_and_validated() {
    let dir = workdir("metric");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "alpha beta\n").unwrap();
    fs::write(&rules, "alpha\ta1\n").unwrap();
    fs::write(&docs, "alpha beta here\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .unwrap();
    for metric in ["jaccard", "dice", "cosine", "overlap"] {
        commands::extract(&argv(&[
            s("--engine"),
            engine.display().to_string(),
            s("--docs"),
            docs.display().to_string(),
            s("--metric"),
            s(metric),
        ]))
        .unwrap_or_else(|e| panic!("metric {metric}: {e}"));
    }
    let err = commands::extract(&argv(&[
        s("--engine"),
        engine.display().to_string(),
        s("--docs"),
        docs.display().to_string(),
        s("--metric"),
        s("nope"),
    ]))
    .unwrap_err();
    assert!(err.contains("unknown metric"));
    let err = commands::extract(&argv(&[
        s("--engine"),
        engine.display().to_string(),
        s("--docs"),
        docs.display().to_string(),
        s("--tau"),
        s("1.5"),
    ]))
    .unwrap_err();
    assert!(err.contains("--tau"));
    // A bad --format is refused before a document is read: also when no
    // document holds a match, which used to end in "0 match(es)" and exit 0.
    let quiet = dir.join("quiet.txt");
    fs::write(&quiet, "nothing to see here\n").unwrap();
    let err = commands::extract(&argv(&[
        s("--engine"),
        engine.display().to_string(),
        s("--docs"),
        quiet.display().to_string(),
        s("--format"),
        s("xml"),
    ]))
    .unwrap_err();
    assert!(err.contains("unknown format `xml`"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn top_k_and_stream_flags_parse_and_validate() {
    let dir = workdir("topk");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "alpha beta gamma\nbeta gamma\n").unwrap();
    fs::write(&rules, "alpha\ta1\n").unwrap();
    fs::write(&docs, "alpha beta gamma and beta gamma again\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .unwrap();
    let base = [s("--engine"), engine.display().to_string(), s("--docs"), docs.display().to_string()];

    // Both `--top-k K` and `--top-k=K` spellings work.
    for spelling in [vec![s("--top-k"), s("2")], vec![s("--top-k=2")]] {
        let mut args = base.to_vec();
        args.extend(spelling);
        commands::extract(&argv(&args)).expect("--top-k extract succeeds");
    }

    // Bad values and near-miss flags are rejected with pointed messages.
    let mut args = base.to_vec();
    args.extend([s("--top-k"), s("0")]);
    assert!(commands::extract(&argv(&args)).unwrap_err().contains("--top-k"));
    let mut args = base.to_vec();
    args.extend([s("--top-k"), s("abc")]);
    assert!(commands::extract(&argv(&args)).unwrap_err().contains("--top-k"));
    let mut args = base.to_vec();
    args.extend([s("--top-q"), s("2")]);
    let err = commands::extract(&argv(&args)).unwrap_err();
    assert!(err.contains("unknown flag") && err.contains("--top-k"), "near-miss must name the real flag: {err}");

    // Exactness guard: --top-k refuses --best and extraction budgets.
    let mut args = base.to_vec();
    args.extend([s("--top-k"), s("2"), s("--best")]);
    assert!(commands::extract(&argv(&args)).unwrap_err().contains("--best"));
    let mut args = base.to_vec();
    args.extend([s("--top-k"), s("2"), s("--max-matches"), s("5")]);
    assert!(commands::extract(&argv(&args)).unwrap_err().contains("--top-k"));

    // --stream reads one document from stdin: batch-shaped flags — and the
    // budgets and worker count a stream never applies — are rejected up
    // front (before any stdin read).
    for extra in [
        vec![s("--docs"), docs.display().to_string()],
        vec![s("--top-k"), s("2")],
        vec![s("--best")],
        vec![s("--timeout"), s("5")],
        vec![s("--max-candidates"), s("9")],
        vec![s("--max-matches"), s("1")],
        vec![s("--threads"), s("2")],
    ] {
        let mut args = vec![s("--engine"), engine.display().to_string(), s("--stream")];
        args.extend(extra.clone());
        let err = commands::extract(&argv(&args)).unwrap_err();
        assert!(err.contains("--stream"), "{extra:?}: {err}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors_for_missing_files_and_flags() {
    assert!(commands::build(&argv(&[s("--dict"), s("/nonexistent/x")])).is_err());
    let err = commands::extract(&argv(&[])).unwrap_err();
    assert!(err.contains("--engine"), "{err}");
    let err = commands::stats(&argv(&[s("--engine"), s("/nonexistent/engine")])).unwrap_err();
    assert!(err.contains("/nonexistent/engine"));
}

#[test]
fn demo_runs() {
    assert_eq!(commands::demo().expect("demo runs"), commands::EXIT_OK);
}

#[test]
fn build_is_atomic_and_leaves_no_temp_files() {
    let dir = workdir("atomic");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "a b\n").unwrap();
    fs::write(&rules, "a\talpha\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .expect("build succeeds");
    assert!(engine.exists());
    let leftovers: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn budget_flags_yield_partial_exit_code() {
    let dir = workdir("budget");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "purdue university usa\nuq au\n").unwrap();
    fs::write(&rules, "uq\tuniversity of queensland\n").unwrap();
    fs::write(&docs, "purdue university usa and uq au\nuniversity of queensland au\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .unwrap();

    let base = [s("--engine"), engine.display().to_string(), s("--docs"), docs.display().to_string()];
    // Unconstrained run: complete results, exit 0.
    let code = commands::extract(&argv(&base)).expect("extract succeeds");
    assert_eq!(code, commands::EXIT_OK);
    // Generous budgets: still complete.
    let mut generous = base.to_vec();
    generous.extend([s("--timeout"), s("3600"), s("--max-candidates"), s("1000000")]);
    assert_eq!(commands::extract(&argv(&generous)).unwrap(), commands::EXIT_OK);
    // Zero candidate budget: every document truncates → exit 2.
    let mut strangled = base.to_vec();
    strangled.extend([s("--max-candidates"), s("0")]);
    assert_eq!(commands::extract(&argv(&strangled)).unwrap(), commands::EXIT_PARTIAL);
    // Same under a metric override.
    let mut strangled_dice = base.to_vec();
    strangled_dice.extend([s("--max-candidates"), s("0"), s("--metric"), s("dice")]);
    assert_eq!(commands::extract(&argv(&strangled_dice)).unwrap(), commands::EXIT_PARTIAL);
    // Invalid budget values are failures, not silently ignored.
    let mut bad = base.to_vec();
    bad.extend([s("--timeout"), s("-1")]);
    assert!(commands::extract(&argv(&bad)).unwrap_err().contains("--timeout"));
    let mut bad = base.to_vec();
    bad.extend([s("--max-candidates"), s("many")]);
    assert!(commands::extract(&argv(&bad)).unwrap_err().contains("--max-candidates"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_rules_file_reports_line() {
    let dir = workdir("badrules");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    fs::write(&dict, "a b\n").unwrap();
    fs::write(&rules, "only-one-column\n").unwrap();
    let err = commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        dir.join("e.aeet").display().to_string(),
    ]))
    .unwrap_err();
    assert!(err.contains(":1:"), "line number in: {err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn build_info_extract_and_compaction_round_trip() {
    let dir = workdir("frozen");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "Purdue University USA\nUQ AU\nMIT\n").unwrap();
    fs::write(&rules, "UQ\tUniversity of Queensland\nAU\tAustralia\nMIT\tMassachusetts Institute of Technology\t0.95\n").unwrap();
    fs::write(&docs, "she visited purdue university usa then mit\nuniversity of queensland australia\n").unwrap();

    let build_args = [
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ];
    commands::build(&argv(&build_args)).expect("build succeeds");
    let info = aeetes_core::peek_info(&fs::read(&engine).unwrap()).expect("peek built artifact");
    assert_eq!(info.version, 9);
    // The retired switches are unknown flags, not silent no-ops: the format
    // is fixed, and the bytes do not depend on how many parts built them.
    for retired in [vec![s("--frozen")], vec![s("--shards"), s("2")]] {
        let flag = retired[0].clone();
        let err = commands::build(&argv(&[build_args.to_vec(), retired].concat())).unwrap_err();
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }

    // dict info reads it from the header (both renderings).
    commands::dict_cmd(&argv(&[s("info"), engine.display().to_string()])).expect("dict info succeeds");
    commands::dict_cmd(&argv(&[s("info"), engine.display().to_string(), s("--json")])).expect("dict info --json succeeds");

    let e = engine.display().to_string();
    let d = docs.display().to_string();
    commands::stats(&argv(&[s("--engine"), e.clone()])).expect("stats succeeds");
    commands::profile_cmd(&argv(&[s("--engine"), e.clone(), s("--doc"), d.clone(), s("--runs"), s("1"), s("--warmup"), s("0")]))
        .expect("profile succeeds");
    for flags in [vec![], vec!["--metric", "dice", "--threads", "2"], vec!["--top-k", "2"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_aeetes"))
            .args(["extract", "--docs", &d, "--tau", "0.7", "--engine", &e])
            .args(&flags)
            .output()
            .expect("run aeetes extract");
        assert!(out.status.success(), "{flags:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!out.stdout.is_empty(), "{flags:?}: the fixture documents hold matches");
    }
    // The flags that selected the retired paths are gone, not ignored.
    assert!(commands::serve_cmd(&argv(&[s("--engine"), e.clone(), s("--shards"), s("3")]))
        .unwrap_err()
        .contains("unknown flag --shards"));
    assert!(commands::extract(&argv(&[s("--engine"), e, s("--docs"), d, s("--edit"), s("1")]))
        .unwrap_err()
        .contains("unknown flag --edit"));

    // WAL compaction rewrites the artifact at the log's last generation,
    // then resets the log.
    let wal = dir.join("deltas.wal");
    let mut log = aeetes_core::Wal::create(&wal, 1).expect("create wal");
    let delta = aeetes_cli::protocol::delta_value(&aeetes_shard::DictDelta {
        add_entities: vec!["University of Queensland Brisbane".into()],
        remove_entities: vec![],
        add_rules: vec![],
    });
    log.append(2, delta.to_string().as_bytes()).expect("append delta");
    log.sync().expect("sync wal");
    drop(log);

    commands::wal_cmd(&argv(&[s("compact"), s("--wal"), wal.display().to_string(), s("--engine"), engine.display().to_string()]))
        .expect("wal compact succeeds");
    let info = aeetes_core::peek_info(&fs::read(&engine).unwrap()).expect("peek compacted artifact");
    assert_eq!(info.version, 9);
    assert_eq!(info.generation, 2, "compacted artifact must carry the log's last generation");

    // The compacted artifact still serves extraction.
    assert_eq!(
        commands::extract(&argv(&[s("--engine"), engine.display().to_string(), s("--docs"), docs.display().to_string(),]))
            .expect("extract over compacted artifact"),
        commands::EXIT_OK
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A v9 image of two segments — what `build --shards 2` wrote before a
/// generation became one index — is refused on open by every verb that
/// reads an artifact, `dict info` included, with a message naming the
/// segment count and saying to rebuild; the file is left as it was.
#[test]
fn a_two_segment_artifact_is_refused_by_name() {
    let dir = workdir("twosegments");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let one = dir.join("one.aeet");
    fs::write(&dict, "Purdue University USA\nUQ AU\nMIT\n").unwrap();
    fs::write(&rules, "UQ\tUniversity of Queensland\n").unwrap();
    fs::write(&docs, "purdue university usa\n").unwrap();
    let paths = [&dict, &rules, &one].map(|p| p.display().to_string());
    commands::build(&argv(&[s("--dict"), paths[0].clone(), s("--rules"), paths[1].clone(), s("--out"), paths[2].clone()])).expect("build succeeds");

    let parts = aeetes_core::open_frozen(&one).expect("open artifact");
    let segment = || aeetes_core::FreezeSegment { dd: &parts.dd, index: &parts.index };
    let bytes = aeetes_core::freeze_to_bytes(&aeetes_core::FreezeSource {
        interner: &parts.interner,
        dict: &parts.dict,
        removed: &parts.removed,
        rules: &parts.rules,
        config: &parts.config,
        generation: parts.generation,
        order: &parts.order,
        segments: vec![segment(), segment()],
    });
    let two = dir.join("two.aeet");
    fs::write(&two, &bytes).unwrap();

    let (e, d) = (two.display().to_string(), docs.display().to_string());
    type Verb = (&'static str, fn(&[String]) -> Result<i32, String>, Vec<String>);
    let verbs: [Verb; 5] = [
        ("serve", commands::serve_cmd, vec![s("--engine"), e.clone()]),
        ("extract", commands::extract, vec![s("--engine"), e.clone(), s("--docs"), d.clone()]),
        ("stats", commands::stats, vec![s("--engine"), e.clone()]),
        ("profile", commands::profile_cmd, vec![s("--engine"), e.clone(), s("--doc"), d]),
        ("dict info", commands::dict_cmd, vec![s("info"), e.clone()]),
    ];
    for (verb, run, args) in verbs {
        let err = run(&args).expect_err(&format!("{verb} must refuse a two-segment artifact"));
        assert!(err.contains("holds 2 segments, not one") && err.contains("rebuild it with `aeetes build`"), "{verb}: {err}");
    }
    assert_eq!(fs::read(&two).unwrap(), bytes, "a refused artifact must be left untouched");
    let _ = fs::remove_dir_all(&dir);
}

/// A file with the AEET magic but a format version this build does not read
/// — the retired v1–v8 layouts, or a future one — fails every command that
/// opens an engine the same way: an error (exit 1 in `main`) naming the
/// version and saying to rebuild, never a panic or a "corrupt" verdict.
#[test]
fn other_format_versions_fail_clean_on_every_verb() {
    let dir = workdir("legacy");
    let docs = dir.join("docs.txt");
    fs::write(&docs, "purdue university usa\n").unwrap();
    // `wal compact` only opens the artifact when the log has a record to fold.
    let wal = dir.join("deltas.wal");
    let mut log = aeetes_core::Wal::create(&wal, 1).expect("create wal");
    log.append(2, br#"{"add_entities":["x y"]}"#).expect("append delta");
    log.sync().expect("sync wal");
    drop(log);

    for version in [1u32, 2, 3, 4, 5, 6, 7, 8, 10] {
        let engine = dir.join(format!("v{version}.aeet"));
        let mut bytes = b"AEET".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        fs::write(&engine, &bytes).unwrap();
        let e = engine.display().to_string();
        let d = docs.display().to_string();
        type Verb = (&'static str, fn(&[String]) -> Result<i32, String>, Vec<String>);
        let verbs: [Verb; 6] = [
            ("serve", commands::serve_cmd, vec![s("--engine"), e.clone()]),
            ("extract", commands::extract, vec![s("--engine"), e.clone(), s("--docs"), d.clone()]),
            ("stats", commands::stats, vec![s("--engine"), e.clone()]),
            ("profile", commands::profile_cmd, vec![s("--engine"), e.clone(), s("--doc"), d.clone()]),
            ("dict info", commands::dict_cmd, vec![s("info"), e.clone()]),
            ("wal compact", commands::wal_cmd, vec![s("compact"), s("--wal"), wal.display().to_string(), s("--engine"), e.clone()]),
        ];
        for (verb, run, args) in verbs {
            let err = run(&args).expect_err(&format!("{verb} must refuse a v{version} file"));
            assert!(
                err.contains(&format!("format version {version} ")) && err.contains("rebuild") && err.contains("aeetes build"),
                "{verb} on v{version}: {err}"
            );
        }
        assert_eq!(fs::read(&engine).unwrap(), bytes, "a refused artifact must be left untouched");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `dict info` lists exactly the v9 sections: eleven global ones, then the
/// index's: the seven index arenas, the origin prefix — once, for the variant
/// table and the index both — and the variant weights, the last holding 8
/// bytes per variant where some rule weighing other than 1.0 applies, and
/// nothing otherwise.
#[test]
fn dict_info_lists_exactly_the_v9_sections() {
    const GLOBAL: [&str; 11] = [
        "dict.raw_off",
        "dict.raws",
        "dict.tok_off",
        "dict.tokens",
        "meta",
        "order.freq",
        "order.key",
        "order.untie",
        "strings.bytes",
        "strings.offsets",
        "strings.table",
    ];
    const INDEX: [&str; 9] = [
        "dd.by_origin",
        "dd.weight",
        "ix.block_offsets",
        "ix.blocks",
        "ix.group_len",
        "ix.group_origins",
        "ix.origin_entity",
        "ix.origin_min_pos",
        "ix.tok_groups",
    ];
    let dir = workdir("sections");
    let dict = dir.join("dict.txt");
    fs::write(&dict, "Purdue University USA\nUQ AU\nMIT\nUQ Brisbane\n").unwrap();
    for (weighted, mit_weight) in [(false, ""), (true, "\t0.95")] {
        let rules = dir.join(format!("rules-{weighted}.tsv"));
        fs::write(&rules, format!("UQ\tUniversity of Queensland\nAU\tAustralia\nMIT\tMassachusetts Institute of Technology{mit_weight}\n")).unwrap();
        let engine = dir.join(format!("engine-{weighted}.aeet"));
        let paths = [&dict, &rules, &engine].map(|p| p.display().to_string());
        commands::build(&argv(&[s("--dict"), paths[0].clone(), s("--rules"), paths[1].clone(), s("--out"), paths[2].clone()]))
            .expect("build succeeds");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_aeetes"))
            .args(["dict", "info", &paths[2], "--json"])
            .output()
            .expect("run aeetes dict info");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let info = serde_json::from_str(std::str::from_utf8(&out.stdout).expect("utf-8")).expect("dict info --json prints one object");
        let field = |v: &serde_json::Value, key: &str| v.get(key).and_then(serde_json::Value::as_u64);
        assert_eq!(field(&info, "version"), Some(9));
        let listed: Vec<(&str, u64)> = info
            .get("sections")
            .and_then(serde_json::Value::as_array)
            .expect("sections")
            .iter()
            .map(|sec| (sec.get("kind").and_then(serde_json::Value::as_str).unwrap(), field(sec, "bytes").unwrap()))
            .collect();
        let expected: Vec<&str> = GLOBAL.iter().chain(&INDEX).copied().collect();
        assert_eq!(listed.iter().map(|&(kind, _)| kind).collect::<Vec<_>>(), expected, "weighted={weighted}");
        // The weights: none, or one f64 per variant (the origin prefix and
        // the block prefix each hold a u32 per origin and one more; four
        // origins here); an origin cluster is four bytes of origin and two of
        // lowest position.
        let bytes_of = |kind: &str| listed.iter().find(|&&(k, _)| k == kind).unwrap().1;
        assert_eq!((bytes_of("dd.by_origin"), bytes_of("ix.block_offsets")), (4 * 5, 4 * 5));
        assert_eq!(bytes_of("ix.origin_entity"), 2 * bytes_of("ix.origin_min_pos"));
        let variants = aeetes_core::open_frozen(&engine).expect("open artifact").dd.len() as u64;
        let weights = bytes_of("dd.weight");
        assert_eq!(weights, if weighted { 8 * variants } else { 0 }, "weighted={weighted}: {weights} weight bytes for {variants} variants");
    }
    let _ = fs::remove_dir_all(&dir);
}
