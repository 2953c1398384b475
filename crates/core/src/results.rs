//! Result tables: the tables/figures the benchmarks print.

use crate::error::Result;
use eth_data::error::DataError;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A simple column-ordered results table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultTable {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    pub fn new(title: &str, columns: &[&str]) -> ResultTable {
        ResultTable {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the arity is wrong (a programming error in
    /// the bench harness, not a runtime condition).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity {} != {} columns in '{}'",
            cells.len(),
            self.columns.len(),
            self.title
        );
        self.rows.push(cells);
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor by (row, column name).
    pub fn cell(&self, row: usize, column: &str) -> Option<&str> {
        let c = self.columns.iter().position(|n| n == column)?;
        self.rows.get(row).map(|r| r[c].as_str())
    }

    /// Cell parsed as f64.
    pub fn cell_f64(&self, row: usize, column: &str) -> Option<f64> {
        self.cell(row, column)?.parse().ok()
    }

    /// GitHub-flavored markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("### {}\n\n", self.title);
        s.push_str("| ");
        s.push_str(&self.columns.join(" | "));
        s.push_str(" |\n|");
        for _ in &self.columns {
            s.push_str("---|");
        }
        s.push('\n');
        for row in &self.rows {
            s.push_str("| ");
            s.push_str(&row.join(" | "));
            s.push_str(" |\n");
        }
        s
    }

    /// CSV rendering (no quoting needed: cells are numbers/identifiers).
    pub fn to_csv(&self) -> String {
        let mut s = self.columns.join(",");
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }

    pub fn write_csv(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(DataError::from)?;
        }
        std::fs::write(path, self.to_csv()).map_err(DataError::from)?;
        Ok(())
    }
}

/// Format seconds for a table cell.
pub fn fmt_s(v: f64) -> String {
    format!("{v:.2}")
}

/// Format kilowatts.
pub fn fmt_kw(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a ratio/fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Format seconds as milliseconds to three significant digits, so a
/// sub-millisecond measurement keeps its size: `0.214 ms`, `12.3 ms`,
/// `1234 ms`.
pub fn fmt_ms(seconds: f64) -> String {
    let ms = seconds * 1e3;
    let decimals = if ms > 0.0 {
        (2 - ms.log10().floor() as i32).clamp(0, 12) as usize
    } else {
        0
    };
    format!("{ms:.decimals$} ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ResultTable {
        let mut t = ResultTable::new("Table I", &["Algorithm", "Time (s)", "Power (kW)"]);
        t.push_row(vec!["raycasting".into(), fmt_s(464.4), fmt_kw(55.7)]);
        t.push_row(vec!["gaussian_splat".into(), fmt_s(171.9), fmt_kw(55.3)]);
        t
    }

    #[test]
    fn accessors() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, "Algorithm"), Some("raycasting"));
        assert_eq!(t.cell_f64(1, "Time (s)"), Some(171.9));
        assert_eq!(t.cell(0, "nope"), None);
        assert_eq!(t.cell(5, "Algorithm"), None);
    }

    #[test]
    fn markdown_structure() {
        let md = table().to_markdown();
        assert!(md.starts_with("### Table I"));
        assert!(md.contains("| Algorithm | Time (s) | Power (kW) |"));
        assert!(md.contains("| raycasting | 464.40 | 55.7 |"));
    }

    #[test]
    fn csv_roundtrip_values() {
        let csv = table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "Algorithm,Time (s),Power (kW)");
        assert!(lines[2].starts_with("gaussian_splat,"));
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("eth-results-test/nested");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.csv");
        table().write_csv(&path).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = ResultTable::new("bad", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_s(1.234), "1.23");
        assert_eq!(fmt_kw(55.67), "55.7");
        assert_eq!(fmt_pct(0.391), "39.1%");
        assert_eq!(fmt_ms(0.000_214), "0.214 ms");
        assert_eq!(fmt_ms(0.012_34), "12.3 ms");
        assert_eq!(fmt_ms(1.234), "1234 ms");
        assert_eq!(fmt_ms(0.0), "0 ms");
    }

    #[test]
    fn a_positive_latency_never_prints_as_zero() {
        // one nanosecond, the finest an `Instant` measures, up to an hour
        let mut s = 1e-9;
        while s < 3600.0 {
            let text = fmt_ms(s);
            let value: f64 = text.trim_end_matches(" ms").parse().unwrap();
            assert!(value > 0.0, "{s} s printed as {text}");
            assert!((value / (s * 1e3) - 1.0).abs() < 0.01, "{s} s printed as {text}");
            s *= 1.37;
        }
    }
}
