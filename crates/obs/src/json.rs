//! A minimal dependency-free JSON parser and the Chrome-trace validator.
//!
//! The container has no crates.io access, so trace validation (the CI
//! `trace-smoke` step, the `ear trace-check` subcommand, the testkit
//! `trace_invariants` checker) runs on this ~150-line recursive-descent
//! parser instead of an external tool. It is a strict-enough subset
//! parser for our own emitted JSON plus anything Perfetto would accept.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is not preserved (keys are sorted).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The member map, if this is an object (keys sorted).
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text =
            std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| self.err(&e.to_string()))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                            if self.pos + 4 > self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.pos..self.pos + 4])
                                .map_err(|e| self.err(&e.to_string()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume a maximal run of plain bytes in one slice.
                    // Breaking only at ASCII '"'/'\\' never splits a UTF-8
                    // scalar (continuation bytes are >= 0x80), and the input
                    // came in as &str, so the run is valid UTF-8.
                    let start = self.pos;
                    while let Some(&c) = self.b.get(self.pos) {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.pos])
                        .map_err(|e| self.err(&e.to_string()))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a complete JSON document.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Escape a string for embedding in JSON output (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Summary statistics returned by a successful [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceCheck {
    /// Total trace events (metadata included).
    pub events: usize,
    /// Distinct `(pid, tid)` lanes carrying non-metadata events.
    pub lanes: usize,
    /// Deepest B/E span nesting seen on any lane.
    pub max_depth: usize,
    /// Number of complete (`ph: "X"`) events.
    pub complete_events: usize,
    /// Number of counter (`ph: "C"`) events.
    pub counter_events: usize,
}

/// Validate a Chrome trace-event JSON document.
///
/// Checks: the document parses; it is either a bare event array or an
/// object with a `traceEvents` array; every event has a string `ph`, a
/// string `name`, and (for non-metadata events) numeric `ts`/`pid`/`tid`;
/// per lane, `B`/`E` events nest properly (matching names, `end ≥ start`,
/// nothing left open); `X` events have a non-negative `dur`; `C` events
/// carry a numeric non-negative `args.value` (queue occupancies and
/// totals can't go below zero), and counters named `*.total` — the
/// convention for cumulative series — must be monotone non-decreasing per
/// lane.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse(text)?;
    let events = match &doc {
        Value::Arr(_) => doc.as_arr().unwrap(),
        Value::Obj(_) => doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("top-level object lacks a traceEvents array")?,
        _ => return Err("trace document must be an array or object".into()),
    };
    let mut check = TraceCheck {
        events: events.len(),
        ..Default::default()
    };
    // Per-lane stack of (name, ts) for B/E matching.
    let mut stacks: BTreeMap<(u64, u64), Vec<(String, f64)>> = BTreeMap::new();
    // Last value of each cumulative (`*.total`) counter series per lane.
    let mut totals: BTreeMap<(u64, u64, String), f64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'ph'"))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'name'"))?;
        if ph == "M" {
            continue;
        }
        let num = |key: &str| -> Result<f64, String> {
            ev.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i} ({name}): missing numeric '{key}'"))
        };
        let ts = num("ts")?;
        let pid = num("pid")? as u64;
        let tid = num("tid")? as u64;
        let lane = stacks.entry((pid, tid)).or_default();
        match ph {
            "B" => {
                lane.push((name.to_string(), ts));
                check.max_depth = check.max_depth.max(lane.len());
            }
            "E" => {
                let (open, start) = lane.pop().ok_or_else(|| {
                    format!("event {i}: 'E' {name} with no open span on lane {pid}/{tid}")
                })?;
                if open != name {
                    return Err(format!(
                        "event {i}: 'E' {name} closes mismatched span {open} on lane {pid}/{tid}"
                    ));
                }
                if ts < start {
                    return Err(format!("event {i}: span {name} ends before it starts"));
                }
            }
            "X" => {
                if num("dur")? < 0.0 {
                    return Err(format!("event {i}: 'X' {name} with negative dur"));
                }
                check.complete_events += 1;
            }
            "C" => {
                let v = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): 'C' without numeric args.value"))?;
                if v < 0.0 {
                    return Err(format!(
                        "event {i}: counter {name} negative ({v}) on lane {pid}/{tid}"
                    ));
                }
                if name.ends_with(".total") {
                    let prev = totals
                        .entry((pid, tid, name.to_string()))
                        .or_insert(f64::NEG_INFINITY);
                    if v < *prev {
                        return Err(format!(
                            "event {i}: cumulative counter {name} decreased on lane \
                             {pid}/{tid} ({v} < {prev})"
                        ));
                    }
                    *prev = v;
                }
                check.counter_events += 1;
            }
            other => return Err(format!("event {i}: unsupported ph '{other}'")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("span {name} left open on lane {pid}/{tid}"));
        }
    }
    check.lanes = stacks.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trippable_values() {
        let v = parse(r#"{"a": [1, -2.5, "x\ny", true, null], "b": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ny")
        );
        assert_eq!(v.get("b"), Some(&Value::Obj(BTreeMap::new())));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] extra").is_err());
    }

    #[test]
    fn long_multibyte_strings_use_the_run_fast_path() {
        // ~1 MB of multibyte text: under the old per-char loop (which
        // re-validated the whole remaining input for every character)
        // this took minutes; the byte-run path parses it instantly.
        let body = "héllo → wörld ".repeat(40_000);
        let doc = format!("[\"{body}\", \"tail\"]");
        let v = parse(&doc).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(body.as_str()));
        assert_eq!(v.as_arr().unwrap()[1].as_str(), Some("tail"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn validator_accepts_nested_and_rejects_broken() {
        let good = r#"{"traceEvents":[
            {"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"w"}},
            {"ph":"B","name":"a","pid":1,"tid":1,"ts":0.0},
            {"ph":"B","name":"b","pid":1,"tid":1,"ts":1.0},
            {"ph":"E","name":"b","pid":1,"tid":1,"ts":2.0},
            {"ph":"C","name":"q","pid":1,"tid":1,"ts":2.5,"args":{"value":3}},
            {"ph":"E","name":"a","pid":1,"tid":1,"ts":3.0},
            {"ph":"X","name":"x","pid":2,"tid":0,"ts":0.0,"dur":5.0}
        ]}"#;
        let c = validate_chrome_trace(good).unwrap();
        assert_eq!(
            (c.events, c.lanes, c.max_depth, c.complete_events),
            (7, 2, 2, 1)
        );

        let crossed = r#"[{"ph":"B","name":"a","pid":1,"tid":1,"ts":0},
                          {"ph":"E","name":"z","pid":1,"tid":1,"ts":1}]"#;
        assert!(validate_chrome_trace(crossed)
            .unwrap_err()
            .contains("mismatched"));

        let open = r#"[{"ph":"B","name":"a","pid":1,"tid":1,"ts":0}]"#;
        assert!(validate_chrome_trace(open)
            .unwrap_err()
            .contains("left open"));

        let missing = r#"[{"ph":"B","name":"a","tid":1,"ts":0}]"#;
        assert!(validate_chrome_trace(missing).unwrap_err().contains("pid"));
    }

    #[test]
    fn validator_checks_counter_events() {
        // Occupancy-style counters may go up and down, but never negative;
        // "*.total" series must be per-lane monotone.
        let good = r#"[
            {"ph":"C","name":"queue.len","pid":1,"tid":1,"ts":0,"args":{"value":3}},
            {"ph":"C","name":"queue.len","pid":1,"tid":1,"ts":1,"args":{"value":0}},
            {"ph":"C","name":"units.total","pid":1,"tid":1,"ts":2,"args":{"value":4}},
            {"ph":"C","name":"units.total","pid":1,"tid":2,"ts":3,"args":{"value":1}},
            {"ph":"C","name":"units.total","pid":1,"tid":1,"ts":4,"args":{"value":4}},
            {"ph":"C","name":"units.total","pid":1,"tid":1,"ts":5,"args":{"value":9}}
        ]"#;
        let c = validate_chrome_trace(good).unwrap();
        assert_eq!(c.counter_events, 6);

        let negative = r#"[
            {"ph":"C","name":"queue.len","pid":1,"tid":1,"ts":0,"args":{"value":-1}}
        ]"#;
        assert!(validate_chrome_trace(negative)
            .unwrap_err()
            .contains("negative"));

        let nonmono = r#"[
            {"ph":"C","name":"units.total","pid":1,"tid":1,"ts":0,"args":{"value":5}},
            {"ph":"C","name":"units.total","pid":1,"tid":1,"ts":1,"args":{"value":4}}
        ]"#;
        assert!(validate_chrome_trace(nonmono)
            .unwrap_err()
            .contains("decreased"));

        let valueless = r#"[
            {"ph":"C","name":"q","pid":1,"tid":1,"ts":0}
        ]"#;
        assert!(validate_chrome_trace(valueless)
            .unwrap_err()
            .contains("args.value"));
    }
}
