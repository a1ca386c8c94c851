//! Aligned text tables for experiment output.

use std::fmt;

/// A simple column-aligned table, rendered in the style the experiment
/// harness prints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        let mut cells = cells;
        while cells.len() < self.headers.len() {
            cells.push(String::new());
        }
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < w.len() {
                    w[i] = w[i].max(cell.len());
                } else {
                    w.push(cell.len());
                }
            }
        }
        w
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(
                    f,
                    " {:<width$} |",
                    cell,
                    width = w.get(i).copied().unwrap_or(0)
                )?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for width in &w {
            write!(f, "{:-<width$}|", "", width = width + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float cell compactly.
pub fn fmt_f64(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as a percentage cell.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = TextTable::new("Demo", &["name", "count"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into()]); // padded
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let s = t.to_string();
        assert!(s.starts_with("## Demo"));
        assert!(s.contains("| name  | count |"));
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     |       |"));
        assert!(s.contains("|-------|-------|"));
    }

    #[test]
    fn cell_formatters() {
        assert_eq!(fmt_f64(1.234), "1.23");
        assert_eq!(fmt_pct(0.5), "50.0%");
    }
}
