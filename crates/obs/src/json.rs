//! Hand-rolled JSON emission and field extraction, shared by the metrics
//! serializers here and the `mwn-runner` results store.
//!
//! The output format is JSON Lines with a *fixed field order*, so that two
//! runs producing the same results produce byte-identical files. The
//! store's resume path needs only string fields out of lines this module
//! itself wrote, so a targeted scanner suffices there; everything else
//! reads the store through `mwn_runner::query::Json`.

use std::fmt::Write as _;

/// Builder for one JSON object with fields in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
        }
    }

    fn sep(&mut self) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
    }

    fn key(&mut self, name: &str) {
        self.sep();
        self.buf.push('"');
        self.buf.push_str(name);
        self.buf.push_str("\":");
    }

    /// A string field, escaped.
    pub fn str(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        write_escaped(&mut self.buf, value);
        self
    }

    /// A pre-serialized JSON value (object, array, number).
    pub fn raw(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.buf.push_str(value);
        self
    }

    pub fn u64(self, name: &str, value: u64) -> Self {
        let v = value.to_string();
        self.raw(name, &v)
    }

    pub fn usize(self, name: &str, value: usize) -> Self {
        let v = value.to_string();
        self.raw(name, &v)
    }

    /// A float field. JSON has no NaN/infinity; those serialize as `null`.
    pub fn f64(self, name: &str, value: f64) -> Self {
        let v = fmt_f64(value);
        self.raw(name, &v)
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Shortest-roundtrip float formatting (Rust's `Display`), `null` for
/// non-finite values. Deterministic for a given toolchain.
pub fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// A JSON array from pre-serialized element strings.
pub fn arr<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

fn write_escaped(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Extracts the string field `name` from a JSON line this module wrote.
///
/// Scans for the literal `"name":"` — safe on our own output because
/// string *values* are escaped, so an unescaped `":"` sequence can only
/// occur at a real key boundary.
pub fn extract_str_field(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\":\"");
    let start = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = chars.by_ref().take(4).collect();
                    let v = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_field_order_is_insertion_order() {
        let line = Obj::new()
            .str("type", "result")
            .u64("seed", 7)
            .f64("x", 1.5)
            .finish();
        assert_eq!(line, r#"{"type":"result","seed":7,"x":1.5}"#);
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        let nasty = "quote \" slash \\ newline \n tab \t bell \u{7}";
        let line = Obj::new()
            .str("error", nasty)
            .str("status", "failed")
            .finish();
        assert_eq!(extract_str_field(&line, "error").as_deref(), Some(nasty));
        assert_eq!(
            extract_str_field(&line, "status").as_deref(),
            Some("failed")
        );
    }

    #[test]
    fn embedded_field_text_does_not_confuse_extraction() {
        // A value containing what looks like a status field: the quotes are
        // escaped on write, so the scanner cannot match inside it.
        let line = Obj::new()
            .str("error", r#"panic: "status":"done" is a lie"#)
            .str("status", "failed")
            .finish();
        assert_eq!(
            extract_str_field(&line, "status").as_deref(),
            Some("failed")
        );
    }

    #[test]
    fn floats_serialize_deterministically() {
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn arrays_join_elements() {
        assert_eq!(arr(vec!["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(arr(Vec::<String>::new()), "[]");
    }

    #[test]
    fn missing_field_is_none() {
        assert_eq!(extract_str_field(r#"{"a":"b"}"#, "key"), None);
        assert_eq!(extract_str_field(r#"{"key":"unterminated"#, "key"), None);
    }
}
