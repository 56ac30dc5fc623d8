//! Minimal ASCII table rendering for experiment reports.

/// A rectangular table with a header row.
///
/// # Examples
///
/// ```
/// use cap_harness::table::Table;
/// let mut t = Table::new(vec!["suite".into(), "rate".into()]);
/// t.add_row(vec!["INT".into(), "67.0%".into()]);
/// let s = t.render();
/// assert!(s.contains("INT"));
/// assert!(s.contains("rate"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header's.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows added so far (for programmatic inspection in tests).
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns. The first column is
    /// left-aligned (labels); the rest are right-aligned (numbers).
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a fraction as a percentage with two decimals (accuracies).
#[must_use]
pub fn pct2(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Formats a speedup ratio.
#[must_use]
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.add_row(vec!["a".into(), "1".into()]);
        t.add_row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines the same width.
        let w = lines[0].len();
        assert!(lines
            .iter()
            .all(|l| l.len() == w || l.trim_end().len() <= w));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["a".into()]);
        t.add_row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.671), "67.1%");
        assert_eq!(pct2(0.98901), "98.90%");
        assert_eq!(ratio(1.21), "1.210");
    }

    #[test]
    fn rows_accessible() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["x".into(), "y".into()]);
        assert_eq!(t.rows()[0][1], "y");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
