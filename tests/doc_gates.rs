//! Documentation gates: what the docs tell a reader to set must exist, and
//! what the code reads or defines must be documented.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Every file under `path` (or `path` itself), in sorted order.
fn files(path: &Path) -> Vec<PathBuf> {
    if path.is_file() {
        return vec![path.to_owned()];
    }
    let Ok(dir) = std::fs::read_dir(path) else {
        return Vec::new();
    };
    let mut entries: Vec<PathBuf> = dir
        .map(|e| e.expect("read a directory entry").path())
        .collect();
    entries.sort();
    entries.iter().flat_map(|p| files(p)).collect()
}

/// Each non-empty run of bytes `ok` accepts right after a `lead` in `text`,
/// with the offset of that `lead`.
fn spelled_after<'t>(
    text: &'t str,
    lead: &'t str,
    ok: fn(&u8) -> bool,
) -> impl Iterator<Item = (usize, &'t str)> + 't {
    text.match_indices(lead).filter_map(move |(at, _)| {
        let tail = &text[at + lead.len()..];
        let len = tail.bytes().take_while(ok).count();
        (len > 0).then(|| (at, &tail[..len]))
    })
}

/// A file under the repository root, read to a string.
fn read(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Every `MOBIDIST_[A-Z_]+` name in the text files under `paths` (relative
/// to the repository root), mapped to the first file that names it.
fn knobs_in(paths: &[&str]) -> BTreeMap<String, PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeMap::new();
    for file in paths.iter().flat_map(|p| files(&root.join(p))) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let shown = file.strip_prefix(root).unwrap_or(&file);
        let knob = |b: &u8| b.is_ascii_uppercase() || *b == b'_';
        for (_, name) in spelled_after(&text, "MOBIDIST_", knob) {
            found
                .entry(format!("MOBIDIST_{name}"))
                .or_insert_with(|| shown.to_owned());
        }
    }
    found
}

/// The repository root's `*.md` files, less the history (CHANGES, ROADMAP)
/// and the per-change task files (ISSUE, REVIEW).
fn root_docs() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs: Vec<String> = std::fs::read_dir(root)
        .expect("read the repository root")
        .map(|e| e.expect("read a directory entry").file_name())
        .filter_map(|n| n.into_string().ok())
        .filter(|n| n.ends_with(".md"))
        .filter(|n| !["CHANGES.md", "ROADMAP.md", "ISSUE.md", "REVIEW.md"].contains(&n.as_str()))
        .collect();
    docs.sort();
    docs
}

/// The docs a user reads for the knobs.
const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
    "SCENARIOS.md",
];

#[test]
fn mobidist_variables_are_read_iff_documented() {
    // Not benchmark/, which has its own gate.
    let read = knobs_in(&["crates", "src"]);
    let docs = root_docs();
    let mut scanned: Vec<&str> = docs.iter().map(String::as_str).collect();
    scanned.extend(["Makefile", "ci", ".claude/skills"]);
    let named = knobs_in(&scanned);
    for (knob, file) in named {
        assert!(
            read.contains_key(&knob),
            "{} names {knob}, but nothing in crates/ or src/ reads it",
            file.display()
        );
    }
    let documented = knobs_in(&DOCS);
    for (knob, file) in read {
        assert!(
            documented.contains_key(&knob),
            "{} reads {knob}, which none of {DOCS:?} names",
            file.display()
        );
    }
}

/// The docs that tell a reader what to run.
const COMMAND_DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

/// Every name the command docs spell right after `lead` — the longest run
/// of bytes `ok` accepts — mapped to the first doc that spells it. With
/// `anchored`, `lead` counts only at the start of a line or after a backtick.
fn named_after(lead: &str, anchored: bool, ok: fn(&u8) -> bool) -> BTreeMap<String, &'static str> {
    let mut found = BTreeMap::new();
    for doc in COMMAND_DOCS {
        let text = read(doc);
        for (at, name) in spelled_after(&text, lead, ok) {
            if anchored && at > 0 && !matches!(text.as_bytes()[at - 1], b'\n' | b'`') {
                continue;
            }
            found.entry(name.to_owned()).or_insert(doc);
        }
    }
    found
}

#[test]
fn make_targets_the_docs_name_exist() {
    let makefile = read("Makefile");
    let named = named_after("make ", true, u8::is_ascii_lowercase);
    assert!(!named.is_empty(), "no doc names a `make` target");
    for (target, doc) in named {
        let rule = format!("{target}:");
        assert!(
            makefile.lines().any(|l| l.starts_with(&rule)),
            "{doc} names `make {target}`, which the Makefile does not define"
        );
    }
}

#[test]
fn bins_the_docs_name_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let named = named_after("--bin ", false, |&b| b.is_ascii_lowercase() || b == b'_');
    assert!(!named.is_empty(), "no doc names a `--bin`");
    for (bin, doc) in named {
        assert!(
            root.join("src/bin").join(format!("{bin}.rs")).is_file(),
            "{doc} names `--bin {bin}`, but src/bin/{bin}.rs does not exist"
        );
    }
}

#[test]
fn experiments_have_a_readme_row_and_a_section() {
    // Ids come from the `fn eN_*` entry points in crates/bench/src/exp_*.rs,
    // plus e0, whose entry point is `exp_model::run`.
    let mut ids = BTreeSet::from(["e0".to_owned()]);
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src");
    for file in files(&src) {
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("exp_") && name.ends_with(".rs")) {
            continue;
        }
        let text = std::fs::read_to_string(&file).expect("read an experiment module");
        for (at, digits) in spelled_after(&text, "fn e", u8::is_ascii_digit) {
            if text[at + "fn e".len() + digits.len()..].starts_with('_') {
                ids.insert(format!("e{digits}"));
            }
        }
    }
    assert!(
        ids.len() > 1,
        "no `fn eN_` entry point under {}",
        src.display()
    );
    let readme = read("README.md");
    let experiments = read("EXPERIMENTS.md");
    for id in ids {
        assert!(
            readme.contains(&format!("| `{id}` |")),
            "{id} has no row in README.md's experiment table"
        );
        // A `## eN` heading, any case, with the id ending at a word boundary.
        let heading = experiments
            .lines()
            .filter_map(|l| l.strip_prefix("## "))
            .any(|h| {
                h.get(..id.len())
                    .is_some_and(|p| p.eq_ignore_ascii_case(&id))
                    && !h[id.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
            });
        assert!(heading, "{id} has no section in EXPERIMENTS.md");
    }
}

#[test]
fn move_patterns_and_fault_kinds_are_in_scenarios() {
    let scenarios = read("SCENARIOS.md");
    for (src, lead) in [
        ("crates/net/src/mobility.rs", "MovePattern::"),
        ("crates/net/src/fault.rs", "FaultKind::"),
    ] {
        let text = read(src);
        let mut named = spelled_after(&text, lead, u8::is_ascii_alphabetic).peekable();
        assert!(named.peek().is_some(), "{src} names no `{lead}`");
        for (_, variant) in named {
            assert!(
                scenarios.contains(variant),
                "{lead}{variant} ({src}) is not documented in SCENARIOS.md"
            );
        }
    }
}

#[test]
fn only_tests_select_the_per_event_reference() {
    // The per-event delivery reference exists for the equivalence tests to
    // diff the batched engine against; no shipped code may pick it. Only
    // the files that define, run and canon-hash the mode may name it.
    let allowed = [
        "crates/net/src/config.rs",
        "crates/net/src/kernel.rs",
        "crates/net/src/fingerprint.rs",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut scanned = files(&root.join("src"));
    scanned.extend(files(&root.join("examples")));
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        scanned.extend(files(
            &krate.expect("read a directory entry").path().join("src"),
        ));
    }
    assert!(
        scanned
            .iter()
            .any(|f| f.ends_with("crates/net/src/kernel.rs")),
        "the scan must reach the crates' sources"
    );
    for file in scanned {
        let shown = file.strip_prefix(root).unwrap_or(&file);
        if allowed.iter().any(|a| shown == Path::new(a)) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        for name in ["with_delivery(", "DeliveryMode::Unbatched"] {
            assert!(
                !text.contains(name),
                "{} names `{name}`: only tests may select the per-event reference",
                shown.display()
            );
        }
    }
}
