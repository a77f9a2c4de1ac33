//! Documentation gates: what the docs tell a reader to set must exist, and
//! what the code reads must be documented.

use std::collections::BTreeMap;
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

/// Every `MOBIDIST_[A-Z_]+` name in the text files under `paths` (relative
/// to the repository root), mapped to the first file that names it.
fn knobs_in(paths: &[&str]) -> BTreeMap<String, PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeMap::new();
    for file in paths.iter().flat_map(|p| files(&root.join(p))) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (at, prefix) in text.match_indices("MOBIDIST_") {
            let tail = &text[at + prefix.len()..];
            let len = tail
                .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                .unwrap_or(tail.len());
            if len > 0 {
                let name = text[at..at + prefix.len() + len].to_owned();
                let shown = file.strip_prefix(root).unwrap_or(&file);
                found.entry(name).or_insert_with(|| shown.to_owned());
            }
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
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeMap::new();
    for doc in COMMAND_DOCS {
        let Ok(text) = std::fs::read_to_string(root.join(doc)) else {
            continue;
        };
        for (at, _) in text.match_indices(lead) {
            if anchored && at > 0 && !matches!(text.as_bytes()[at - 1], b'\n' | b'`') {
                continue;
            }
            let tail = &text[at + lead.len()..];
            let len = tail.bytes().take_while(ok).count();
            if len > 0 {
                found.entry(tail[..len].to_owned()).or_insert(doc);
            }
        }
    }
    found
}

#[test]
fn make_targets_the_docs_name_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let makefile = std::fs::read_to_string(root.join("Makefile")).expect("read the Makefile");
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
