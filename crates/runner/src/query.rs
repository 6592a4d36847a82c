//! Read-side of the results store: parse the JSONL rows back into
//! values, filter them, and aggregate replications into report groups.
//!
//! The write side ([`crate::store`]) emits deterministic hand-rolled
//! JSON; this module is the matching hand-rolled reader — a minimal
//! recursive-descent parser over the full JSON grammar, so `mwn report`
//! needs no external dependency and tolerates rows written by older
//! builds (missing `metrics`, `drops` or `fct` sections are simply
//! absent, not errors).

use std::collections::BTreeMap;
use std::path::Path;

/// A parsed JSON value. Object keys keep insertion order (the store
/// writes deterministically, and `mwn report` only looks keys up).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup: `v.path(&["metrics", "drops", "total"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields, empty for non-objects.
    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Store strings never contain surrogate
                            // pairs; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one multi-byte UTF-8 scalar. Validate at
                    // most 4 bytes — validating the whole remaining
                    // buffer per character would make parsing O(n²).
                    let end = self.bytes.len().min(self.pos + 4);
                    let rest = &self.bytes[self.pos..end];
                    let s = match std::str::from_utf8(rest) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&rest[..e.valid_up_to()]).expect("validated prefix")
                        }
                        Err(_) => return Err("invalid UTF-8 in string".into()),
                    };
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }
}

/// One `"type":"result"` store row, with the commonly-queried fields
/// lifted out of the parsed value.
#[derive(Debug, Clone)]
pub struct Row {
    /// Content key.
    pub key: String,
    /// Figure-family label.
    pub group: String,
    /// Grid-point label.
    pub point: String,
    /// Canonical spec string (`kind|bw=..|transport|seed=..|scale=..`).
    pub spec: String,
    /// Root seed.
    pub seed: u64,
    /// `"done"` or `"failed"`.
    pub status: String,
    /// The whole parsed row.
    pub json: Json,
}

impl Row {
    /// The scenario token (the spec's first `|` segment), e.g.
    /// `"chain:7"` or `"traffic:20:web:180:l1500"`.
    pub fn scenario(&self) -> &str {
        self.spec.split('|').next().unwrap_or("")
    }

    /// The transport token (the spec's third `|` segment), e.g.
    /// `"newreno"` or `"vegas:2+thin"`.
    pub fn variant(&self) -> &str {
        self.spec.split('|').nth(2).unwrap_or("")
    }

    /// The spec with the seed segment removed: the identity of a
    /// replication group (same cell, different seeds).
    pub fn cell(&self) -> String {
        self.spec
            .split('|')
            .filter(|s| !s.starts_with("seed="))
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Offered-load factor for traffic scenarios (`:lNNN` per-mille
    /// token suffix; 1.0 when absent). `None` for closed-loop kinds.
    pub fn load(&self) -> Option<f64> {
        let token = self.scenario();
        if !token.starts_with("traffic:") {
            return None;
        }
        let per_mille: u32 = token
            .rsplit(':')
            .next()
            .and_then(|last| last.strip_prefix('l'))
            .and_then(|n| n.parse().ok())
            .unwrap_or(1000);
        Some(f64::from(per_mille) / 1000.0)
    }

    /// Mean aggregate goodput over the measured batches, kbit/s.
    pub fn goodput_kbps(&self) -> Option<f64> {
        self.json
            .path(&["aggregate_goodput_kbps", "mean"])?
            .as_f64()
    }

    /// The drop-ledger section, if this row was swept with metrics on a
    /// build that records it.
    pub fn drops(&self) -> Option<&Json> {
        self.json.path(&["metrics", "drops"])
    }

    /// The per-class FCT section (open-loop rows only).
    pub fn fct(&self) -> Option<&Json> {
        self.json.path(&["metrics", "fct"])
    }
}

/// A loaded results store.
#[derive(Debug, Clone, Default)]
pub struct StoreView {
    /// The manifest line, if present.
    pub manifest: Option<Json>,
    /// All intact result rows, in file order.
    pub rows: Vec<Row>,
}

impl StoreView {
    /// Loads a results file (and an interrupted run's journal, if one is
    /// lying next to it), skipping torn lines like the resume path does
    /// ([`crate::store::intact_lines`]).
    pub fn load(path: &Path) -> Result<StoreView, String> {
        let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
        let mut view = StoreView::default();
        let mut seen = std::collections::HashSet::new();
        for line in crate::store::intact_lines(path).map_err(|e| at(&e))? {
            let v = Json::parse(&line).map_err(|e| at(&e))?;
            match v.get("type").and_then(Json::as_str) {
                Some("manifest") => view.manifest = Some(v),
                Some("result") => {
                    let field = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    let row = Row {
                        key: field("key"),
                        group: field("group"),
                        point: field("point"),
                        spec: field("spec"),
                        seed: v.get("seed").and_then(Json::as_u64).unwrap_or(0),
                        status: field("status"),
                        json: v,
                    };
                    if seen.insert(row.key.clone()) {
                        view.rows.push(row);
                    }
                }
                _ => {}
            }
        }
        Ok(view)
    }

    /// `"status":"done"` rows matching the filter.
    pub fn select(&self, filter: &RowFilter) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.status == "done" && filter.matches(r))
            .collect()
    }
}

/// Substring/exact filters for `mwn report`.
#[derive(Debug, Clone, Default)]
pub struct RowFilter {
    /// Substring of the scenario token (e.g. `"chain"`, `"traffic"`).
    pub scenario: Option<String>,
    /// Substring of the transport token (e.g. `"vegas"`, `"+thin"`).
    pub variant: Option<String>,
    /// Exact root seed.
    pub seed: Option<u64>,
}

impl RowFilter {
    pub fn matches(&self, row: &Row) -> bool {
        self.scenario
            .as_deref()
            .is_none_or(|s| row.scenario().contains(s))
            && self
                .variant
                .as_deref()
                .is_none_or(|v| row.variant().contains(v))
            && self.seed.is_none_or(|s| row.seed == s)
    }
}

/// Averaged FCT measures for one traffic class within a group.
#[derive(Debug, Clone, Default)]
pub struct ClassAgg {
    /// Class name.
    pub class: String,
    /// Summed arrivals across replications.
    pub arrivals: u64,
    /// Summed completions across replications.
    pub completions: u64,
    /// Percentiles averaged over the replications that report them
    /// (an approximation — exact pooling would need raw samples, which
    /// the store deliberately does not keep).
    pub fct_mean_secs: Option<f64>,
    pub fct_p50_secs: Option<f64>,
    pub fct_p95_secs: Option<f64>,
    pub fct_p99_secs: Option<f64>,
    pub goodput_p50_kbps: Option<f64>,
}

/// One report group: all replications of one sweep cell.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// Replication-group identity (spec minus seed).
    pub cell: String,
    /// Scenario token.
    pub scenario: String,
    /// Transport token.
    pub variant: String,
    /// Offered-load factor (traffic cells only).
    pub load: Option<f64>,
    /// Replications aggregated.
    pub reps: usize,
    /// Aggregate goodput, kbit/s, averaged over replications.
    pub goodput_kbps: Option<f64>,
    /// Drop counts by reason label, summed over replications (empty
    /// when no row carries a ledger).
    pub drop_reasons: BTreeMap<String, u64>,
    /// Total drops summed over replications.
    pub drop_total: u64,
    /// Terminal (custody-ending) drops summed over replications.
    pub drop_terminal: u64,
    /// Per-class drop counts by reason, summed over replications, in
    /// ledger class order; classes that dropped nothing are omitted.
    pub drop_classes: Vec<(String, BTreeMap<String, u64>)>,
    /// Per-class FCT aggregates (empty for closed-loop cells).
    pub fct: Vec<ClassAgg>,
}

/// Groups rows by cell (spec minus seed) and aggregates each group:
/// ledgers are summed, goodput and FCT percentiles averaged. Groups
/// come back sorted by cell string, so output order is deterministic.
pub fn aggregate(rows: &[&Row]) -> Vec<GroupSummary> {
    let mut cells: BTreeMap<String, Vec<&Row>> = BTreeMap::new();
    for row in rows {
        cells.entry(row.cell()).or_default().push(row);
    }
    cells
        .into_iter()
        .map(|(cell, members)| summarize(cell, &members))
        .collect()
}

fn summarize(cell: String, members: &[&Row]) -> GroupSummary {
    let first = members[0];
    let mut drop_reasons = BTreeMap::new();
    let mut drop_classes: Vec<(String, BTreeMap<String, u64>)> = Vec::new();
    let mut drop_total = 0;
    let mut drop_terminal = 0;
    let mut goodputs = Vec::new();
    // class name -> (agg, per-field (sum, count) for averaged options)
    let mut classes: Vec<ClassAgg> = Vec::new();
    let mut class_samples: Vec<[(f64, u32); 5]> = Vec::new();

    for row in members {
        if let Some(g) = row.goodput_kbps() {
            goodputs.push(g);
        }
        if let Some(drops) = row.drops() {
            drop_total += drops.get("total").and_then(Json::as_u64).unwrap_or(0);
            drop_terminal += drops.get("terminal").and_then(Json::as_u64).unwrap_or(0);
            for (reason, n) in drops.get("reasons").map(Json::fields).unwrap_or(&[]) {
                *drop_reasons.entry(reason.clone()).or_insert(0) += n.as_u64().unwrap_or(0);
            }
            for pc in drops.get("per_class").and_then(Json::as_arr).unwrap_or(&[]) {
                let name = pc.get("class").and_then(Json::as_str).unwrap_or("");
                let counts = pc.get("drops").map(Json::fields).unwrap_or(&[]);
                if counts.is_empty() {
                    continue;
                }
                let idx = match drop_classes.iter().position(|(n, _)| n == name) {
                    Some(i) => i,
                    None => {
                        drop_classes.push((name.to_string(), BTreeMap::new()));
                        drop_classes.len() - 1
                    }
                };
                for (reason, n) in counts {
                    *drop_classes[idx].1.entry(reason.clone()).or_insert(0) +=
                        n.as_u64().unwrap_or(0);
                }
            }
        }
        let class_rows = row
            .fct()
            .and_then(|f| f.get("classes"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for c in class_rows {
            let name = c.get("class").and_then(Json::as_str).unwrap_or("");
            let idx = match classes.iter().position(|a| a.class == name) {
                Some(i) => i,
                None => {
                    classes.push(ClassAgg {
                        class: name.to_string(),
                        ..ClassAgg::default()
                    });
                    class_samples.push([(0.0, 0); 5]);
                    classes.len() - 1
                }
            };
            classes[idx].arrivals += c.get("arrivals").and_then(Json::as_u64).unwrap_or(0);
            classes[idx].completions += c.get("completions").and_then(Json::as_u64).unwrap_or(0);
            const FIELDS: [&str; 5] = [
                "fct_mean_secs",
                "fct_p50_secs",
                "fct_p95_secs",
                "fct_p99_secs",
                "goodput_p50_kbps",
            ];
            for (slot, field) in FIELDS.iter().enumerate() {
                if let Some(x) = c.get(field).and_then(Json::as_f64) {
                    class_samples[idx][slot].0 += x;
                    class_samples[idx][slot].1 += 1;
                }
            }
        }
    }

    for (agg, samples) in classes.iter_mut().zip(&class_samples) {
        let avg = |slot: usize| {
            let (sum, n) = samples[slot];
            (n > 0).then(|| sum / f64::from(n))
        };
        agg.fct_mean_secs = avg(0);
        agg.fct_p50_secs = avg(1);
        agg.fct_p95_secs = avg(2);
        agg.fct_p99_secs = avg(3);
        agg.goodput_p50_kbps = avg(4);
    }

    GroupSummary {
        scenario: first.scenario().to_string(),
        variant: first.variant().to_string(),
        load: first.load(),
        cell,
        reps: members.len(),
        goodput_kbps: (!goodputs.is_empty())
            .then(|| goodputs.iter().sum::<f64>() / goodputs.len() as f64),
        drop_reasons,
        drop_classes,
        drop_total,
        drop_terminal,
        fct: classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_store_shapes() {
        let v = Json::parse(
            r#"{"type":"result","key":"ab12","seed":7,"n":-1.5e3,"ok":true,"none":null,
                "arr":[1,2,{"x":"yA\n"}],"empty":{},"earr":[]}"#,
        )
        .unwrap();
        assert_eq!(v.get("key").and_then(Json::as_str), Some("ab12"));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(
            v.path(&["arr"]).and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("arr").unwrap().as_arr().unwrap()[2]
                .get("x")
                .and_then(Json::as_str),
            Some("yA\n")
        );
        assert!(v.get("empty").unwrap().fields().is_empty());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":1}{"#).is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
    }

    fn row(spec: &str, seed: u64, extra: &str) -> Row {
        let line = format!(
            r#"{{"type":"result","key":"k{seed}-{spec}","group":"g","point":"p","spec":"{spec}","seed":{seed},"status":"done"{extra}}}"#
        );
        let json = Json::parse(&line).unwrap();
        Row {
            key: format!("k{seed}-{spec}"),
            group: "g".into(),
            point: "p".into(),
            spec: spec.into(),
            seed,
            status: "done".into(),
            json,
        }
    }

    #[test]
    fn cell_strips_seed_and_load_parses() {
        let r = row(
            "traffic:20:web:180:l1500|bw=11000000|newreno|seed=9|scale=1x1x1",
            9,
            "",
        );
        assert_eq!(
            r.cell(),
            "traffic:20:web:180:l1500|bw=11000000|newreno|scale=1x1x1"
        );
        assert_eq!(r.scenario(), "traffic:20:web:180:l1500");
        assert_eq!(r.variant(), "newreno");
        assert_eq!(r.load(), Some(1.5));
        let nominal = row("traffic:20:web:180|bw=1|newreno|seed=1|scale=1x1x1", 1, "");
        assert_eq!(nominal.load(), Some(1.0));
        let chain = row("chain:7|bw=1|newreno|seed=1|scale=1x1x1", 1, "");
        assert_eq!(chain.load(), None);
    }

    #[test]
    fn filter_matches_scenario_variant_and_seed() {
        let r = row("chain:7|bw=2000000|vegas:2+thin|seed=3|scale=1x1x1", 3, "");
        let hit = RowFilter {
            scenario: Some("chain".into()),
            variant: Some("+thin".into()),
            seed: Some(3),
        };
        assert!(hit.matches(&r));
        let miss = RowFilter {
            scenario: Some("grid".into()),
            ..RowFilter::default()
        };
        assert!(!miss.matches(&r));
        assert!(RowFilter::default().matches(&r));
    }

    #[test]
    fn aggregate_sums_ledgers_and_averages_percentiles() {
        let extra = |gp: f64, drops: u64, p50: f64| {
            format!(
                r#","aggregate_goodput_kbps":{{"mean":{gp},"half_width":0}},"metrics":{{"drops":{{"total":{drops},"terminal":{drops},"reasons":{{"ifq_overflow":{drops}}}}},"fct":{{"classes":[{{"class":"web","arrivals":10,"completions":9,"fct_p50_secs":{p50}}}]}}}}"#
            )
        };
        let a = row(
            "traffic:9:web:10|bw=1|newreno|seed=1|scale=1",
            1,
            &extra(100.0, 4, 0.2),
        );
        let b = row(
            "traffic:9:web:10|bw=1|newreno|seed=2|scale=1",
            2,
            &extra(200.0, 6, 0.4),
        );
        let other = row(
            "chain:2|bw=1|newreno|seed=1|scale=1",
            1,
            &extra(50.0, 1, 0.1),
        );
        let refs: Vec<&Row> = vec![&a, &b, &other];
        let groups = aggregate(&refs);
        assert_eq!(groups.len(), 2);
        // BTreeMap order: "chain:2|..." sorts before "traffic:...".
        let chain = &groups[0];
        assert_eq!(chain.scenario, "chain:2");
        assert_eq!(chain.reps, 1);
        let traffic = &groups[1];
        assert_eq!(traffic.reps, 2);
        assert_eq!(traffic.goodput_kbps, Some(150.0));
        assert_eq!(traffic.drop_total, 10);
        assert_eq!(traffic.drop_reasons["ifq_overflow"], 10);
        assert_eq!(traffic.fct.len(), 1);
        assert_eq!(traffic.fct[0].arrivals, 20);
        assert_eq!(traffic.fct[0].completions, 18);
        assert!((traffic.fct[0].fct_p50_secs.unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(traffic.fct[0].fct_p95_secs, None);
    }

    #[test]
    fn rows_without_metrics_still_aggregate() {
        let a = row("chain:2|bw=1|newreno|seed=1|scale=1", 1, "");
        let refs: Vec<&Row> = vec![&a];
        let g = &aggregate(&refs)[0];
        assert_eq!(g.reps, 1);
        assert_eq!(g.goodput_kbps, None);
        assert_eq!(g.drop_total, 0);
        assert!(g.drop_reasons.is_empty() && g.fct.is_empty());
    }
}
