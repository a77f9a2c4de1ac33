//! Golden digests: each workload's output digest at seed 1, keyed by the
//! kernel's behaviour version.
//!
//! `fingerprint::KERNEL_VERSION_SALT` is bumped by any change that may alter
//! an event stream, a ledger or a report. So: same salt and a different
//! digest means behaviour changed without saying so — a failed check; a salt
//! the file does not know means the goldens are out of date — reported as
//! `stale`, not failed (refresh with `run.sh --update-golden`).

use crate::json::{self, Value};
use crate::workloads::Size;
use mobidist_net::fingerprint::KERNEL_VERSION_SALT;
use std::path::Path;

/// The seed the stored digests were taken at.
pub const GOLDEN_SEED: u64 = 1;

/// Digest matches the stored one.
pub const OK: &str = "ok";
/// The file has no entry for the current salt.
pub const STALE: &str = "stale";
/// Not checked: another seed, or no readable file.
pub const ABSENT: &str = "absent";
/// Same salt, different digest.
pub const MISMATCH: &str = "mismatch";

/// The parsed golden file (or nothing, when unreadable).
#[derive(Debug, Clone)]
pub struct Golden(Option<Value>);

fn size_key(size: Size) -> &'static str {
    match size {
        Size::Full => "full",
        Size::Quick => "quick",
    }
}

impl Golden {
    /// Reads `path`; an unreadable or malformed file checks nothing.
    pub fn load(path: &Path) -> Self {
        Golden(
            std::fs::read_to_string(path)
                .ok()
                .and_then(|t| json::parse(&t).ok()),
        )
    }

    /// Compares `digest` with the stored one for the current salt.
    pub fn verdict(&self, workload: &str, seed: u64, size: Size, digest: u64) -> &'static str {
        let Some(doc) = &self.0 else {
            return ABSENT;
        };
        if seed != GOLDEN_SEED {
            return ABSENT;
        }
        let Some(salt) = doc
            .get("salts")
            .and_then(|s| s.get(&KERNEL_VERSION_SALT.to_string()))
        else {
            return STALE;
        };
        match salt
            .get(size_key(size))
            .and_then(|s| s.get(workload))
            .and_then(Value::as_str)
        {
            None => STALE,
            Some(hex) if hex == format!("{digest:016x}") => OK,
            Some(_) => MISMATCH,
        }
    }
}

/// Renders a golden file for the current salt from `(size, workload, digest)`
/// rows.
pub fn render(rows: &[(Size, String, String)]) -> String {
    let section = |size: Size| {
        rows.iter()
            .filter(|(s, _, _)| *s == size)
            .map(|(_, w, d)| format!("        \"{w}\": \"{d}\""))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"seed\": {GOLDEN_SEED},\n  \"salts\": {{\n    \"{KERNEL_VERSION_SALT}\": {{\n      \
         \"full\": {{\n{}\n      }},\n      \"quick\": {{\n{}\n      }}\n    }}\n  }}\n}}\n",
        section(Size::Full),
        section(Size::Quick)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(text: &str) -> Golden {
        Golden(json::parse(text).ok())
    }

    #[test]
    fn verdicts() {
        let rows = vec![
            (
                Size::Full,
                "ring_unicast".to_owned(),
                format!("{:016x}", 7u64),
            ),
            (
                Size::Quick,
                "ring_unicast".to_owned(),
                format!("{:016x}", 9u64),
            ),
        ];
        let g = golden(&render(&rows));
        assert_eq!(g.verdict("ring_unicast", 1, Size::Full, 7), OK);
        assert_eq!(g.verdict("ring_unicast", 1, Size::Quick, 9), OK);
        assert_eq!(g.verdict("ring_unicast", 1, Size::Full, 8), MISMATCH);
        // Another seed is not checked; an unknown workload is stale.
        assert_eq!(g.verdict("ring_unicast", 2, Size::Full, 8), ABSENT);
        assert_eq!(g.verdict("churn_1m", 1, Size::Full, 8), STALE);
        // A file that only knows another salt is stale, not failed.
        let other = render(&rows).replace(
            &format!("\"{KERNEL_VERSION_SALT}\""),
            &format!("\"{}\"", KERNEL_VERSION_SALT + 1),
        );
        assert_eq!(
            golden(&other).verdict("ring_unicast", 1, Size::Full, 8),
            STALE
        );
        assert_eq!(
            golden("not json").verdict("ring_unicast", 1, Size::Full, 7),
            ABSENT
        );
    }
}
