//! Plain-text rendering of experiment output.
//!
//! Every experiment prints (a) paper-style tables and (b) figure
//! *series* — the `(x, y)` point lists behind Figures 2–5 and 8 — in both a
//! human-readable block and machine-readable CSV, so the harness output can
//! be diffed against EXPERIMENTS.md and re-plotted.

use std::fmt::Write as _;

/// A labelled `(x, y)` series, one per curve of a paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label as it appears in the paper's figure legend
    /// (e.g. `"Network Read"`, `"tournament(M)"`).
    pub label: String,
    /// The `(x, y)` points; x is typically the processor count.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series with a label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if present (exact match).
    #[must_use]
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|&(_, y)| y)
    }

    /// Whether the series is monotonically non-decreasing in y.
    #[must_use]
    pub fn monotonic_up(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12)
    }
}

/// Render a figure's series as CSV: header `x,label1,label2,...` then one
/// row per distinct x (missing values left empty). All series are expected
/// to share the same x grid; stray x values get their own rows.
#[must_use]
pub fn series_to_csv(series: &[Series]) -> String {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x"));
    xs.dedup();
    let mut out = String::from("x");
    for s in series {
        let _ = write!(out, ",{}", s.label.replace(',', ";"));
    }
    out.push('\n');
    for &x in &xs {
        let _ = write!(out, "{x}");
        for s in series {
            match s.y_at(x) {
                Some(y) => {
                    let _ = write!(out, ",{y}");
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// A simple fixed-width text table used for non-scaling tables (e.g. the
/// SP optimization ladder of Table 4).
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Must match the header arity.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with columns padded to their widest cell.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                let _ = write!(out, "{cell:>w$}", w = w);
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_push_and_lookup() {
        let mut s = Series::new("net read");
        s.push(1.0, 8.75e-6);
        s.push(32.0, 9.45e-6);
        assert_eq!(s.y_at(1.0), Some(8.75e-6));
        assert_eq!(s.y_at(2.0), None);
        assert!(s.monotonic_up());
    }

    #[test]
    fn monotonic_detects_dip() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        s.push(2.0, 1.0);
        assert!(!s.monotonic_up());
    }

    #[test]
    fn csv_shape() {
        let mut a = Series::new("a");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("b");
        b.push(1.0, 30.0);
        let csv = series_to_csv(&[a, b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10,30");
        assert_eq!(lines[2], "2,20,");
    }

    #[test]
    fn csv_escapes_commas_in_labels() {
        let mut a = Series::new("read, shared");
        a.push(1.0, 1.0);
        let csv = series_to_csv(&[a]);
        assert!(csv.starts_with("x,read; shared"));
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["Optimizations", "Time per iteration (s)"]);
        t.row(&["Base version".into(), "2.54".into()]);
        t.row(&["Data padding and alignment".into(), "2.14".into()]);
        let s = t.render();
        assert!(s.contains("Base version"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // header + separator + 2 rows
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn text_table_rejects_bad_row() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }
}
