//! The one writer of the `BENCH_*.json` artifacts and their stdout tables.
//!
//! Each section declares its row's columns once ([`Artifact::section`]):
//! each column is a JSON key and its value, rendered by [`num`], [`fixed`]
//! (with its precision), [`text`] or [`opt`]. That one list renders both
//! the JSON row and the stdout [`Table`] row, so the two cannot drift
//! apart.
//!
//! Every section states the [`Clock`] its numbers come from — the
//! calibrated cost model (`sim`) or the host's wall clock (`wall`) — in a
//! `"clock"` map right after the artifact's name, so a simulated result is
//! never mistaken for a measured one. An artifact with a wall-clock
//! section also records the host (`host_cores`, `cpu_features`); a
//! simulated-only artifact stays host-independent.

use crate::table::Table;
use std::fmt::Display;

/// A column: its JSON key and its value as JSON text.
pub type Column = (&'static str, String);

/// A value whose `Display` form is its JSON: integers, booleans, and
/// floats in shortest round-trip form (`0.2`, not `0.200`).
pub fn num(v: impl Display) -> String {
    v.to_string()
}

/// A float with `decimals` digits after the point, or `null` when absent.
pub fn fixed(x: impl Into<Option<f64>>, decimals: usize) -> String {
    opt(x.into().map(|x| format!("{x:.decimals$}")))
}

/// A JSON string.
pub fn text(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// An optional [`num`]: `null` when absent.
pub fn opt(v: Option<impl Display>) -> String {
    v.map_or_else(|| "null".to_string(), num)
}

/// An inline JSON object: `{"key": value, ...}`.
fn object(fields: &[Column]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A stdout-table cell: the JSON value, strings unquoted, `null` as `-`.
fn cell(json: &str) -> String {
    match json {
        "null" => "-".to_string(),
        v => v.trim_matches('"').to_string(),
    }
}

/// Which clock produced a section's numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The simulated clock of the calibrated cost model.
    Sim,
    /// The host's wall clock.
    Wall,
}

/// A row section: its name, its clock, and its rows.
type Section = (&'static str, Clock, Vec<Vec<Column>>);

/// A `BENCH_*.json` artifact: its name, header keys, and row sections.
#[derive(Debug)]
pub struct Artifact {
    header: Vec<Column>,
    sections: Vec<Section>,
}

impl Artifact {
    /// An artifact whose first key is `kind` (`"experiment"` or
    /// `"bench"`) with value `name`.
    pub fn new(kind: &'static str, name: &str) -> Self {
        let header = vec![(kind, text(name))];
        Artifact {
            header,
            sections: Vec::new(),
        }
    }

    /// Appends a header key, written after the name and the clock map.
    pub fn header(mut self, key: &'static str, value: String) -> Self {
        self.header.push((key, value));
        self
    }

    /// Appends a row section measured on `clock`; `columns` declares a
    /// row's columns in output order.
    pub fn section<R>(
        mut self,
        name: &'static str,
        clock: Clock,
        rows: &[R],
        columns: impl Fn(&R) -> Vec<Column>,
    ) -> Self {
        self.sections
            .push((name, clock, rows.iter().map(columns).collect()));
        self
    }

    /// The artifact as JSON: name, clock map, declared header keys, host
    /// fields if any section is wall-clock, then the sections — one key or
    /// row per line, in declaration order, with no trailing commas.
    pub fn json(&self) -> String {
        let clocks: Vec<Column> = self
            .sections
            .iter()
            .map(|(name, clock, _)| (*name, text(clock.label())))
            .collect();
        let mut header = self.header.clone();
        header.insert(1, ("clock", object(&clocks)));
        let measured = self.sections.iter().any(|s| s.1 == Clock::Wall);
        if measured {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            let features = pipellm_crypto::hw::cpu_features().map(|(f, on)| (f, num(on)));
            header.push(("host_cores", num(cores)));
            header.push(("cpu_features", object(&features)));
        }
        let mut lines: Vec<String> = header
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        for (name, _, rows) in &self.sections {
            let rows: Vec<String> = rows
                .iter()
                .map(|r| format!("\n    {}", object(r)))
                .collect();
            lines.push(format!("  \"{name}\": [{}\n  ]", rows.join(",")));
        }
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Every section as a stdout table titled with its clock: one column
    /// per key, strings unquoted, `null` shown as `-`.
    pub fn tables(&self) -> String {
        let name = self.header[0].1.trim_matches('"');
        let mut out = Vec::new();
        for (section, clock, rows) in &self.sections {
            let title = format!("{name}: {section} ({} clock)", clock.label());
            let keys: Vec<&str> = rows.first().into_iter().flatten().map(|c| c.0).collect();
            let mut table = Table::new(title, &keys);
            for row in rows {
                table.push(row.iter().map(|(_, v)| cell(v)).collect());
            }
            out.push(table.to_string());
        }
        out.join("\n")
    }

    /// Writes the JSON artifact to `path`, aborting the bench run if the
    /// file cannot be written.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.json()).expect("write benchmark artifact");
    }
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Demo = (&'static str, Option<f64>, u64);

    const DEMO: [Demo; 2] = [("a", Some(0.25), 1), ("b", None, 2)];

    fn columns(d: &Demo) -> Vec<Column> {
        vec![
            ("name", text(d.0)),
            ("rate", fixed(d.1, 3)),
            ("count", num(d.2)),
        ]
    }

    #[test]
    fn sim_only_layout_is_exact() {
        // `None` is null, precision is honoured, no trailing commas, and
        // no host fields without a wall-clock section.
        let json = Artifact::new("experiment", "demo")
            .header("seed", num(7))
            .section("rows", Clock::Sim, &DEMO, columns)
            .json();
        assert_eq!(
            json,
            "{\n  \"experiment\": \"demo\",\n  \"clock\": {\"rows\": \"sim\"},\n  \
             \"seed\": 7,\n  \"rows\": [\n    \
             {\"name\": \"a\", \"rate\": 0.250, \"count\": 1},\n    \
             {\"name\": \"b\", \"rate\": null, \"count\": 2}\n  ]\n}\n"
        );
        assert_eq!(num(0.2), "0.2");
        let empty = Artifact::new("bench", "demo").section("rows", Clock::Sim, &[], columns);
        assert!(empty.json().ends_with("  \"rows\": [\n  ]\n}\n"));
    }

    #[test]
    fn wall_section_adds_host_fields_and_sections_keep_their_order() {
        let json = Artifact::new("bench", "demo")
            .header("seed", num(7))
            .section("rows", Clock::Sim, &DEMO, columns)
            .section("net_kill", Clock::Wall, &DEMO[..1], columns)
            .json();
        assert!(json.starts_with(
            "{\n  \"bench\": \"demo\",\n  \"clock\": {\"rows\": \"sim\", \"net_kill\": \"wall\"},\n  \
             \"seed\": 7,\n  \"host_cores\": "
        ));
        assert_eq!(json.matches("\n  \"cpu_features\": {\"aes\": ").count(), 1);
        assert!(json.contains("\"count\": 2}\n  ],\n  \"net_kill\": [\n    {\"name\": \"a\""));
        // No trailing comma after the last row or the last section.
        assert!(json.ends_with("\"count\": 1}\n  ]\n}\n"));
    }

    #[test]
    fn table_has_one_column_per_declared_key() {
        let tables = Artifact::new("experiment", "demo")
            .section("rows", Clock::Sim, &DEMO, columns)
            .tables();
        let lines: Vec<Vec<&str>> = tables
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(lines[0], ["##", "demo:", "rows", "(sim", "clock)"]);
        assert_eq!(lines[1], ["name", "rate", "count"]);
        assert_eq!(lines[3..], [["a", "0.250", "1"], ["b", "-", "2"]]);
    }
}
