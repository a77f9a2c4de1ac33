//! Plain-text table rendering for experiment output.
//!
//! Every experiment produces a [`Table`] printed as aligned
//! markdown-compatible text, so `experiments` output can be pasted straight
//! into EXPERIMENTS.md.

use std::fmt;

/// A titled table of strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table caption (experiment id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Renders as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n## {}\n", self.title)?;
        let w = self.widths();
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:<width$} |", c, width = w[i]));
            }
            s
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        let mut sep = String::from("|");
        for width in &w {
            sep.push_str(&format!("{}|", "-".repeat(width + 2)));
        }
        writeln!(f, "{sep}")?;
        for r in &self.rows {
            writeln!(f, "{}", fmt_row(r))?;
        }
        Ok(())
    }
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as `NN.N%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("T", &["a", "longer"]);
        t.push(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("## T"));
        assert!(s.contains("| a | longer |"));
        assert!(s.contains("| 1 | 2      |"));
        assert!(s.contains("|---|--------|"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T", &["a"]);
        t.push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new("T", &["x", "y"]);
        t.push(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(0.5), "50.0%");
    }
}
