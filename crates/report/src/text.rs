//! A small aligned-monospace table builder.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (text).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// An aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers (all left-aligned).
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns: vec![Align::Left; headers.len()],
            rows: Vec::new(),
        }
    }

    /// Sets per-column alignment (panics on length mismatch).
    pub fn aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment arity mismatch");
        self.aligns = aligns.to_vec();
        self
    }

    /// Appends a row (padded/truncated to the header arity).
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Self {
        let mut row: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                match aligns[i] {
                    Align::Left => {
                        line.push_str(cell);
                        line.push_str(&" ".repeat(pad));
                    }
                    Align::Right => {
                        line.push_str(&" ".repeat(pad));
                        line.push_str(cell);
                    }
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths, &vec![Align::Left; ncols]));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths, &self.aligns));
            out.push('\n');
        }
        out
    }
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Formats `pct% (count)` as the paper's Table 3 cells do.
pub fn pct_count(p: f64, n: usize) -> String {
    format!("{p:.2}% ({n})")
}

/// A horizontal ASCII bar of `width` cells, `filled` of them solid.
pub fn bar(filled: usize, width: usize) -> String {
    let filled = filled.min(width);
    format!("[{}{}]", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new("T", &["name", "value"]).aligns(&[Align::Left, Align::Right]);
        t.row(&["a", "1"]);
        t.row(&["longer-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].starts_with("name"));
        // Right-aligned numbers end at the same column.
        let l3 = lines[3];
        let l4 = lines[4];
        assert!(l3.ends_with('1'));
        assert!(l4.ends_with('5'));
        assert_eq!(l3.rfind('1').unwrap(), l4.rfind('5').unwrap());
    }

    #[test]
    fn rows_padded_to_arity() {
        let mut t = TextTable::new("", &["a", "b", "c"]);
        t.row(&["x"]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn helpers() {
        assert_eq!(pct(12.34), "12.3%");
        assert_eq!(pct_count(6.7, 67), "6.70% (67)");
        assert_eq!(bar(2, 5), "[##...]");
        assert_eq!(bar(9, 5), "[#####]");
    }
}
