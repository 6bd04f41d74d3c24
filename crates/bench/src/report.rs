//! Result tables: a tiny fixed-width report format shared by every
//! reproduced experiment.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Version stamp written into every experiment's JSON rendering, so
/// downstream consumers (the `repro_cli` schema test, plot scripts) can
/// assert the layout they were written against. Bump on incompatible
/// change.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// One row of an experiment's result table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Row label (configuration or series name).
    pub label: String,
    /// `(column name, value)` pairs, printed in order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row from a label and `(column, value)` pairs.
    pub fn new(label: impl Into<String>, values: Vec<(&str, f64)>) -> Self {
        Row {
            label: label.into(),
            values: values.into_iter().map(|(c, v)| (c.to_owned(), v)).collect(),
        }
    }

    /// Looks up a value by column name.
    pub fn value(&self, column: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(c, _)| c == column)
            .map(|&(_, v)| v)
    }
}

/// One reproduced table or figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment {
    /// Short id (`fig15`, `table3`, …) used on the command line.
    pub id: String,
    /// Human-readable title including the paper artifact.
    pub title: String,
    /// Result rows.
    pub rows: Vec<Row>,
    /// What the paper reports, for side-by-side comparison.
    pub paper_reference: String,
}

impl Experiment {
    /// Creates an experiment report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        paper_reference: impl Into<String>,
    ) -> Self {
        Experiment {
            id: id.into(),
            title: title.into(),
            rows: Vec::new(),
            paper_reference: paper_reference.into(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Finds a row by label.
    pub fn row(&self, label: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.label == label)
    }
}

impl Experiment {
    /// Renders the rows as CSV: a header of `label` plus the union of
    /// value columns, then one line per row (missing values are empty).
    pub fn to_csv(&self) -> String {
        let mut columns: Vec<String> = Vec::new();
        for row in &self.rows {
            for (c, _) in &row.values {
                if !columns.contains(c) {
                    columns.push(c.clone());
                }
            }
        }
        let mut out = String::from("label");
        for c in &columns {
            out.push(',');
            out.push_str(&c.replace(',', ";"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.label.replace(',', ";"));
            for c in &columns {
                out.push(',');
                if let Some(v) = row.value(c) {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the experiment as a JSON object: schema version, id
    /// (the producing experiment), title, paper reference, and rows as
    /// `{label, values: {column: value}}`.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        use std::collections::BTreeMap;

        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|row| {
                let values: BTreeMap<String, Value> = row
                    .values
                    .iter()
                    .map(|(c, v)| (c.clone(), Value::Number(*v)))
                    .collect();
                let mut obj = BTreeMap::new();
                obj.insert("label".to_owned(), Value::from(row.label.as_str()));
                obj.insert("values".to_owned(), Value::Object(values));
                Value::Object(obj)
            })
            .collect();
        let mut obj = BTreeMap::new();
        obj.insert(
            "schema_version".to_owned(),
            Value::from(REPORT_SCHEMA_VERSION),
        );
        obj.insert("id".to_owned(), Value::from(self.id.as_str()));
        obj.insert("title".to_owned(), Value::from(self.title.as_str()));
        obj.insert(
            "paper_reference".to_owned(),
            Value::from(self.paper_reference.as_str()),
        );
        obj.insert("rows".to_owned(), Value::Array(rows));
        Value::Object(obj).to_json()
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        if self.rows.is_empty() {
            return writeln!(f, "   (no rows)");
        }
        // Column layout: label column + union of value columns in
        // first-appearance order.
        let mut columns: Vec<String> = Vec::new();
        for row in &self.rows {
            for (c, _) in &row.values {
                if !columns.contains(c) {
                    columns.push(c.clone());
                }
            }
        }
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(5)
            .max(5);
        write!(f, "   {:label_w$}", "")?;
        for c in &columns {
            write!(f, "  {c:>14}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "   {:label_w$}", row.label)?;
            for c in &columns {
                match row.value(c) {
                    Some(v) if v.abs() >= 1000.0 => write!(f, "  {v:>14.0}")?,
                    Some(v) if v.abs() >= 1.0 => write!(f, "  {v:>14.2}")?,
                    Some(v) => write!(f, "  {v:>14.4}")?,
                    None => write!(f, "  {:>14}", "-")?,
                }
            }
            writeln!(f)?;
        }
        writeln!(f, "   paper: {}", self.paper_reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_look_up_values() {
        let r = Row::new("x", vec![("a", 1.0), ("b", 2.0)]);
        assert_eq!(r.value("a"), Some(1.0));
        assert_eq!(r.value("missing"), None);
    }

    #[test]
    fn display_renders_all_rows_and_columns() {
        let mut e = Experiment::new("fig0", "test figure", "n/a");
        e.push(Row::new("alpha", vec![("lat", 1.5), ("x", 2000.0)]));
        e.push(Row::new("beta", vec![("lat", 0.25)]));
        let s = e.to_string();
        assert!(s.contains("fig0"));
        assert!(s.contains("alpha") && s.contains("beta"));
        assert!(s.contains("lat") && s.contains('x'));
        assert!(s.contains("2000"));
        assert!(s.contains('-'), "missing values print a dash");
        assert!(e.row("alpha").is_some());
        assert!(e.row("gamma").is_none());
    }

    #[test]
    fn empty_experiment_renders() {
        let e = Experiment::new("e", "t", "p");
        assert!(e.to_string().contains("no rows"));
    }

    #[test]
    fn json_renders_all_fields() {
        let mut e = Experiment::new("fig0", "test \"figure\"", "n/a");
        e.push(Row::new("alpha", vec![("lat", 1.5)]));
        let json = e.to_json();
        assert_eq!(
            json,
            r#"{"id":"fig0","paper_reference":"n/a","rows":[{"label":"alpha","values":{"lat":1.5}}],"schema_version":1,"title":"test \"figure\""}"#
        );
        // Machine-checkable: parses back with the version stamp and
        // producing experiment id.
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(REPORT_SCHEMA_VERSION)
        );
        assert_eq!(v.get("id").unwrap().as_str(), Some("fig0"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut e = Experiment::new("fig0", "t", "p");
        e.push(Row::new("a,b", vec![("x", 1.5), ("y", 2.0)]));
        e.push(Row::new("c", vec![("y", 3.0)]));
        let csv = e.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "label,x,y");
        assert_eq!(lines[1], "a;b,1.5,2");
        assert_eq!(lines[2], "c,,3");
    }
}
