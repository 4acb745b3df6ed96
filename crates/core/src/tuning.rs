//! The brute-force tuning table (paper §IV-B).
//!
//! The Tuning Table Aggregator exhaustively searches the (transport
//! partitions × QPs) space per (user partitions, message size) key and
//! records the argmin. The search itself lives in `partix-workloads` (it
//! runs experiments); this module holds the table type, lookup semantics,
//! and a plain-text persistence format so a 23-hour-equivalent search can be
//! reused (the paper's table was built once and loaded at init).

use std::collections::BTreeMap;

/// Key: (user partition count, aggregate message size in bytes).
pub type TuningKey = (u32, u64);

/// Value: (transport partition count, QP count).
pub type TuningValue = (u32, u32);

/// A tuning table mapping workload shape to the empirically best transport
/// configuration, kept in key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuningTable {
    map: BTreeMap<TuningKey, TuningValue>,
}

impl TuningTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Record the best configuration for a key.
    pub fn insert(&mut self, user_parts: u32, msg_bytes: u64, transport: u32, qps: u32) {
        self.map.insert((user_parts, msg_bytes), (transport, qps));
    }

    /// Exact lookup.
    pub fn get(&self, user_parts: u32, msg_bytes: u64) -> Option<TuningValue> {
        self.map.get(&(user_parts, msg_bytes)).copied()
    }

    /// Lookup with nearest-size fallback: if the exact message size is
    /// missing, use the entry (same partition count) whose size is nearest
    /// in log-space; a size exactly between two entries takes the smaller
    /// one. Returns `None` only if no entry exists for the partition count
    /// at all.
    pub fn lookup(&self, user_parts: u32, msg_bytes: u64) -> Option<TuningValue> {
        if let Some(v) = self.get(user_parts, msg_bytes) {
            return Some(v);
        }
        let target = (msg_bytes.max(1) as f64).ln();
        // `min_by` keeps the first of equal distances, and the map iterates
        // in ascending size.
        self.map
            .range((user_parts, 0)..=(user_parts, u64::MAX))
            .min_by(|((_, a), _), ((_, b), _)| {
                let da = ((*a).max(1) as f64).ln() - target;
                let db = ((*b).max(1) as f64).ln() - target;
                da.abs()
                    .partial_cmp(&db.abs())
                    .expect("finite size distances")
            })
            .map(|(_, v)| *v)
    }

    /// Serialise as plain text: one `user_parts msg_bytes transport qps`
    /// line per entry, in key order.
    pub fn to_text(&self) -> String {
        let mut out =
            String::from("# partix tuning table: user_parts msg_bytes transport_parts qps\n");
        for ((p, s), (t, q)) in &self.map {
            out.push_str(&format!("{p} {s} {t} {q}\n"));
        }
        out
    }

    /// Parse the plain-text format. Lines starting with `#` and blank lines
    /// are ignored; a malformed line, or a field out of its type's range,
    /// produces an error naming the line and the field.
    pub fn from_text(text: &str) -> std::result::Result<Self, String> {
        let mut table = TuningTable::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(format!(
                    "line {}: expected 4 fields, got {}",
                    lineno + 1,
                    fields.len()
                ));
            }
            let p: u32 = field(fields[0], lineno + 1, "user_parts")?;
            let s: u64 = field(fields[1], lineno + 1, "msg_bytes")?;
            let t: u32 = field(fields[2], lineno + 1, "transport_parts")?;
            let q: u32 = field(fields[3], lineno + 1, "qps")?;
            if t == 0 || q == 0 {
                return Err(format!(
                    "line {}: transport/qps must be non-zero",
                    lineno + 1
                ));
            }
            table.insert(p, s, t, q);
        }
        Ok(table)
    }
}

/// Field `what` of line `line`, parsed as a `T` (out of range is an error).
fn field<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> std::result::Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| format!("line {line}: bad {what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_exact_get() {
        let mut t = TuningTable::new();
        t.insert(32, 1 << 20, 4, 4);
        assert_eq!(t.get(32, 1 << 20), Some((4, 4)));
        assert_eq!(t.get(32, 1 << 21), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn nearest_size_fallback() {
        let mut t = TuningTable::new();
        t.insert(32, 1024, 1, 1);
        t.insert(32, 1 << 20, 8, 8);
        t.insert(16, 1 << 20, 2, 2);
        // 2 MiB is nearest (log-space) to 1 MiB.
        assert_eq!(t.lookup(32, 2 << 20), Some((8, 8)));
        // 2 KiB nearest to 1 KiB.
        assert_eq!(t.lookup(32, 2048), Some((1, 1)));
        // Unknown partition count: nothing.
        assert_eq!(t.lookup(64, 1024), None);
        // Exact still wins.
        assert_eq!(t.lookup(16, 1 << 20), Some((2, 2)));
    }

    #[test]
    fn a_lookup_between_two_entries_takes_the_smaller_size() {
        // 2 MiB is as far from 1 MiB as from 4 MiB in log-space, to the bit.
        for _ in 0..64 {
            let mut t = TuningTable::new();
            t.insert(32, 1 << 20, 1, 1);
            t.insert(32, 4 << 20, 4, 4);
            assert_eq!(t.lookup(32, 2 << 20), Some((1, 1)));
        }
    }

    #[test]
    fn text_round_trip() {
        let mut t = TuningTable::new();
        t.insert(4, 4096, 1, 1);
        t.insert(32, 1 << 20, 4, 4);
        t.insert(128, 64 << 20, 32, 16);
        let text = t.to_text();
        let back = TuningTable::from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn text_parse_errors() {
        assert!(TuningTable::from_text("1 2 3").is_err());
        assert!(TuningTable::from_text("a b c d").is_err());
        assert!(TuningTable::from_text("1 2 0 1").is_err());
        // 2^32 + 1 does not fit a u32 field: refused, not truncated to 1.
        for (line, field) in [
            ("4294967297 1024 1 1", "user_parts"),
            ("4 1024 4294967297 1", "transport_parts"),
            ("4 1024 1 4294967297", "qps"),
        ] {
            let err = TuningTable::from_text(&format!("# c\n{line}\n")).unwrap_err();
            assert!(err.starts_with(&format!("line 2: bad {field}")), "{err}");
        }
        let ok = TuningTable::from_text("# comment\n\n4 1024 2 2\n").unwrap();
        assert_eq!(ok.get(4, 1024), Some((2, 2)));
    }

    #[test]
    fn text_output_is_sorted() {
        let mut t = TuningTable::new();
        t.insert(32, 2048, 1, 1);
        t.insert(4, 1024, 1, 1);
        t.insert(32, 1024, 1, 1);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines, vec!["4 1024 1 1", "32 1024 1 1", "32 2048 1 1"]);
    }
}
