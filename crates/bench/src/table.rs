//! Minimal fixed-width table formatting for experiment output.

use std::fmt;

/// A printable table: header plus rows of equally many cells.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column header.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Replaces the table title (e.g. when a grid is reused by several
    /// figures).
    pub fn set_title(&mut self, title: impl Into<String>) {
        self.title = title.into();
    }

    /// The rows pushed so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Looks up a cell by row predicate and column name.
    pub fn cell(&self, row_match: &str, column: &str) -> Option<&str> {
        let col = self.header.iter().position(|h| h == column)?;
        self.rows
            .iter()
            .find(|r| r.first().is_some_and(|c| c == row_match))
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}")?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a throughput/latency overhead as the paper quotes it:
/// `(baseline - measured) / baseline` as a percentage.
pub fn overhead_pct(baseline: f64, measured: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (baseline - measured) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["system", "tok/s"]);
        t.push(vec!["w/o CC".into(), "41.3".into()]);
        t.push(vec!["PipeLLM".into(), "38.0".into()]);
        let text = t.to_string();
        assert!(text.contains("## demo"));
        assert!(text.contains("w/o CC"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn cell_lookup() {
        let mut t = Table::new("demo", &["system", "tok/s"]);
        t.push(vec!["CC".into(), "4.9".into()]);
        assert_eq!(t.cell("CC", "tok/s"), Some("4.9"));
        assert_eq!(t.cell("CC", "missing"), None);
        assert_eq!(t.cell("nope", "tok/s"), None);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(100.0, 80.0) - 20.0).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 10.0), 0.0);
        assert!(
            overhead_pct(50.0, 60.0) < 0.0,
            "speedups are negative overhead"
        );
    }
}
