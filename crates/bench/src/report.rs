//! Result tables: aligned text rendering and CSV output.

use std::fmt::Write as _;
use std::path::Path;

/// A simple result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (used as the CSV file stem and text header).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (each the same length as `columns`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Write `<dir>/<slug>.csv` and return the rendered text form.
    pub fn save(&self, dir: &Path, slug: &str) -> std::io::Result<String> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{slug}.csv")), self.to_csv())?;
        Ok(self.render())
    }
}

/// Format a byte count compactly (KiB/MiB).
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns() {
        let mut t = Table::new("demo", &["size", "speedup"]);
        t.push(vec!["64KiB".into(), "1.50".into()]);
        t.push(vec!["128MiB".into(), "0.98".into()]);
        let text = t.render();
        assert!(text.contains("## demo"));
        assert!(text.contains("  speedup"));
        assert!(text.contains(" 64KiB"));
    }

    #[test]
    fn csv_shape() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4096), "4KiB");
        assert_eq!(fmt_bytes(8 << 20), "8MiB");
    }
}
