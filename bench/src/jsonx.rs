//! The two JSON helpers `mwn_obs::json` lacks: a bare quoted string and
//! re-serialisation of a parsed value.

use mwn_obs::json::{arr, fmt_f64, Obj};
use mwn_runner::query::Json;

/// `s` as a JSON string literal.
pub fn quoted(s: &str) -> String {
    // `{"s":"…"}` minus the wrapper; the closing quote stops the trim.
    Obj::new().str("s", s).finish()[5..]
        .trim_end_matches('}')
        .to_string()
}

/// Re-serialises a parsed value.
pub fn render(j: &Json) -> String {
    match j {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => fmt_f64(*n),
        Json::Str(s) => quoted(s),
        Json::Arr(items) => arr(items.iter().map(render)),
        Json::Obj(fields) => fields
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.raw(k, &render(v)))
            .finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_round_trips_through_the_parser() {
        for s in ["plain", "brace}", "quote\"and\\slash", ""] {
            assert_eq!(Json::parse(&quoted(s)), Ok(Json::Str(s.to_string())));
        }
        let text = r#"{"a":[1,2.5,null,true],"b":{"c":"d}"}}"#;
        assert_eq!(render(&Json::parse(text).unwrap()), text);
    }
}
