//! Optional JSON export of experiment rows.
//!
//! Every figure of `exp` prints human-readable markdown tables; setting
//! `HOMONYM_EXP_JSON=<dir>` additionally dumps the raw result rows of
//! the figures that call [`maybe_dump`] as a JSON array to
//! `<dir>/<experiment>.json`, for downstream plotting. A row type names
//! its own fields through [`JsonRow`]; nothing is derived.

use std::fmt::{Display, Write as _};
use std::fs;
use std::path::PathBuf;

/// One JSON object being written, field by field.
#[derive(Debug)]
pub struct JsonObject {
    /// The opening brace and the fields so far.
    out: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// Appends `"key":value`, the value exactly as `{}` prints it: for
    /// numbers, booleans and `null`.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        write!(self.out, "{value}").expect("writing to a String");
        self
    }

    /// Appends `"key":"value"`, the value quoted and escaped.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }
}

/// A result row that can be exported: one JSON object per row.
pub trait JsonRow {
    /// Writes the row's fields, in output order.
    fn write_fields(&self, object: &mut JsonObject);
}

/// Writes `rows` to `$HOMONYM_EXP_JSON/<name>.json` when the environment
/// variable is set; silently does nothing otherwise.
///
/// # Panics
///
/// Panics if the directory cannot be created or the file cannot be
/// written — experiment binaries should fail loudly rather than silently
/// drop requested output.
pub fn maybe_dump<T: JsonRow>(name: &str, rows: &[T]) {
    let Ok(dir) = std::env::var("HOMONYM_EXP_JSON") else {
        return;
    };
    let dir = PathBuf::from(dir);
    fs::create_dir_all(&dir).expect("create JSON output directory");
    let path = dir.join(format!("{name}.json"));
    let body = to_json_array(rows);
    fs::write(&path, body).expect("write JSON output");
    eprintln!("wrote {}", path.display());
}

/// The rows as a JSON array, one object per line.
fn to_json_array<T: JsonRow>(rows: &[T]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut object = JsonObject {
            out: String::from("{"),
        };
        row.write_fields(&mut object);
        out.push_str(&object.out);
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        n: usize,
        label: String,
        decided: bool,
        time: Option<u64>,
        ratio: f64,
    }

    impl JsonRow for Row {
        fn write_fields(&self, object: &mut JsonObject) {
            object
                .raw("n", self.n)
                .string("label", &self.label)
                .raw("decided", self.decided);
            match self.time {
                Some(t) => object.raw("time", t),
                None => object.raw("time", "null"),
            }
            .raw("ratio", self.ratio);
        }
    }

    fn row(n: usize, label: &str, decided: bool, time: Option<u64>, ratio: f64) -> Row {
        Row {
            n,
            label: label.into(),
            decided,
            time,
            ratio,
        }
    }

    #[test]
    fn serializes_struct_rows() {
        let rows = vec![
            row(3, "a \"quoted\" one", true, Some(42), 1.5),
            row(4, "plain", false, None, 2.0),
        ];
        let json = to_json_array(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"n\":3"));
        assert!(json.contains("\"label\":\"a \\\"quoted\\\" one\""));
        assert!(json.contains("\"time\":null"));
        assert!(json.contains("\"ratio\":1.5"));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn serializes_real_experiment_rows() {
        let rows = vec![crate::experiments::fig6_evt_hp(5, 2, 30, 3, 1, 35)];
        let json = to_json_array(&rows);
        assert!(json.contains("\"evt_hp_stabilization\""));
    }

    #[test]
    fn dump_respects_env_var() {
        let dir = std::env::temp_dir().join("homonym_json_test");
        std::env::set_var("HOMONYM_EXP_JSON", &dir);
        maybe_dump(
            "unit",
            &[row(1, "a", true, None, 0.5), row(3, "b", false, None, 0.5)],
        );
        std::env::remove_var("HOMONYM_EXP_JSON");
        let body = std::fs::read_to_string(dir.join("unit.json")).expect("written");
        assert!(body.contains("\"n\":1") && body.contains("\"n\":3"));
    }
}
