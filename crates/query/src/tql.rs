//! A small temporal query language.
//!
//! §1 of the paper classifies queries as *current*, *historical*, and
//! *rollback*; its reference \[Sno87\] (TQuel) gives them surface syntax.
//! This module provides a TQuel-flavoured front end over [`Query`]:
//!
//! ```text
//! SELECT FROM plant                                  -- current state
//! SELECT FROM plant AT 1992-02-12T08:58:00           -- valid timeslice
//! SELECT FROM plant DURING 1992-02-01 TO 1992-03-01  -- valid range
//! SELECT FROM plant AS OF 1992-02-12T09:00:00        -- rollback
//! SELECT FROM plant AT 1992-02-10 AS OF 1992-02-12   -- bitemporal point
//! SELECT FROM plant HISTORY OF 7                     -- object life-line
//! ```
//!
//! An optional `WHERE` clause filters on attribute equality, before the
//! temporal part:
//!
//! ```text
//! SELECT FROM plant WHERE sensor = 7 AND unit = 'C' AT 1992-02-12
//! ```
//!
//! Timestamps may be bare (`1992-02-12T08:58:00`) or single-quoted
//! (`'1992-02-12 08:58:00'`, allowing the space form). Keywords are
//! case-insensitive.

use std::fmt;

use tempora_time::Timestamp;

use tempora_core::{Element, ObjectId, Value};

use crate::exec::QueryResult;
use crate::plan::Query;

/// A parsed statement: the target relation name, attribute filters, and
/// the temporal query.
#[derive(Debug, Clone, PartialEq)]
pub struct TqlStatement {
    /// The relation the query targets.
    pub relation: String,
    /// Attribute equality filters (conjunctive).
    pub filters: Vec<(String, Value)>,
    /// The temporal query itself.
    pub query: Query,
}

impl TqlStatement {
    /// Whether an element passes every attribute filter.
    #[must_use]
    pub fn matches(&self, element: &Element) -> bool {
        self.filters
            .iter()
            .all(|(name, value)| element.attr(name) == Some(value))
    }

    /// Applies the `WHERE` filters to the executed [`Self::query`]: keeps
    /// the elements that pass every filter and recounts `returned`. Live
    /// and pinned reads both filter here.
    #[must_use]
    pub fn filter(&self, mut result: QueryResult) -> QueryResult {
        if !self.filters.is_empty() {
            result.elements.retain(|e| self.matches(e));
            result.stats.returned = result.elements.len();
        }
        result
    }
}

/// A TQL parse error with position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TqlError {
    /// What the parser expected.
    pub expected: String,
    /// What it found (`<end>` at end of input).
    pub found: String,
    /// Zero-based token position.
    pub position: usize,
}

impl fmt::Display for TqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TQL syntax error at token {}: expected {}, found {:?}",
            self.position, self.expected, self.found
        )
    }
}

impl std::error::Error for TqlError {}

/// Parses one statement.
///
/// # Errors
///
/// Returns [`TqlError`] on malformed input.
pub fn parse_tql(input: &str) -> Result<TqlStatement, TqlError> {
    let tokens = tokenize(input);
    let mut p = P {
        tokens,
        pos: 0,
    };
    p.expect("SELECT")?;
    p.expect("FROM")?;
    let relation = p.ident()?;
    let mut filters = Vec::new();
    if p.accept("WHERE") {
        loop {
            let name = p.ident()?;
            p.expect("=")?;
            filters.push((name, p.value()?));
            if !p.accept("AND") {
                break;
            }
        }
    }
    let query = p.query_part()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("<end of statement>"));
    }
    Ok(TqlStatement {
        relation,
        filters,
        query,
    })
}

fn tokenize(input: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '\'' {
            chars.next();
            let mut lit = String::new();
            for ch in chars.by_ref() {
                if ch == '\'' {
                    break;
                }
                lit.push(ch);
            }
            out.push(lit);
        } else if c == '=' {
            chars.next();
            out.push("=".to_string());
        } else {
            let mut tok = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '\'' || ch == '=' {
                    break;
                }
                tok.push(ch);
                chars.next();
            }
            out.push(tok);
        }
    }
    out
}

struct P {
    tokens: Vec<String>,
    pos: usize,
}

impl P {
    fn err(&self, expected: &str) -> TqlError {
        TqlError {
            expected: expected.to_string(),
            found: self
                .tokens
                .get(self.pos)
                .cloned()
                .unwrap_or_else(|| "<end>".to_string()),
            position: self.pos,
        }
    }

    fn accept(&mut self, kw: &str) -> bool {
        if self
            .tokens
            .get(self.pos)
            .is_some_and(|t| t.eq_ignore_ascii_case(kw))
        {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kw: &str) -> Result<(), TqlError> {
        if self.accept(kw) {
            Ok(())
        } else {
            Err(self.err(kw))
        }
    }

    fn ident(&mut self) -> Result<String, TqlError> {
        match self.tokens.get(self.pos) {
            Some(t) if t.chars().all(|c| c.is_alphanumeric() || c == '_') && !t.is_empty() => {
                self.pos += 1;
                Ok(self.tokens[self.pos - 1].clone())
            }
            _ => Err(self.err("relation name")),
        }
    }

    fn value(&mut self) -> Result<Value, TqlError> {
        // Quoted tokens arrive with the leading quote stripped by the
        // tokenizer only for... no: the tokenizer strips both quotes and
        // yields the bare literal, indistinguishable from a bare token, so
        // try the typed parses first and fall back to string.
        let tok = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| self.err("a value"))?
            .clone();
        self.pos += 1;
        let v = if tok.eq_ignore_ascii_case("true") {
            Value::Bool(true)
        } else if tok.eq_ignore_ascii_case("false") {
            Value::Bool(false)
        } else if tok.eq_ignore_ascii_case("null") {
            Value::Null
        } else if let Ok(i) = tok.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(f) = tok.parse::<f64>() {
            Value::Float(f)
        } else if let Ok(t) = tok.parse::<Timestamp>() {
            Value::Time(t)
        } else {
            Value::str(&tok)
        };
        Ok(v)
    }

    fn timestamp(&mut self) -> Result<Timestamp, TqlError> {
        let tok = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| self.err("a timestamp"))?;
        let ts = tok
            .parse::<Timestamp>()
            .map_err(|_| self.err("a timestamp (YYYY-MM-DD[THH:MM:SS])"))?;
        self.pos += 1;
        Ok(ts)
    }

    fn query_part(&mut self) -> Result<Query, TqlError> {
        if self.accept("AT") {
            let vt = self.timestamp()?;
            if self.accept("AS") {
                self.expect("OF")?;
                let tt = self.timestamp()?;
                return Ok(Query::Bitemporal { tt, vt });
            }
            return Ok(Query::Timeslice { vt });
        }
        if self.accept("DURING") {
            let from = self.timestamp()?;
            self.expect("TO")?;
            let to = self.timestamp()?;
            if to <= from {
                return Err(self.err("an end time after the start time"));
            }
            return Ok(Query::TimesliceRange { from, to });
        }
        if self.accept("AS") {
            self.expect("OF")?;
            let tt = self.timestamp()?;
            return Ok(Query::Rollback { tt });
        }
        if self.accept("HISTORY") {
            self.expect("OF")?;
            let tok = self
                .tokens
                .get(self.pos)
                .ok_or_else(|| self.err("an object surrogate"))?;
            let raw: u64 = tok.parse().map_err(|_| self.err("an object surrogate (integer)"))?;
            self.pos += 1;
            return Ok(Query::ObjectHistory {
                object: ObjectId::new(raw),
            });
        }
        Ok(Query::Current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn parse_current() {
        let s = parse_tql("SELECT FROM plant").unwrap();
        assert_eq!(s.relation, "plant");
        assert_eq!(s.query, Query::Current);
    }

    #[test]
    fn parse_timeslice() {
        let s = parse_tql("select from plant at 1992-02-12T08:58:00").unwrap();
        assert_eq!(
            s.query,
            Query::Timeslice {
                vt: ts("1992-02-12T08:58:00")
            }
        );
    }

    #[test]
    fn parse_range() {
        let s = parse_tql("SELECT FROM plant DURING 1992-02-01 TO 1992-03-01").unwrap();
        assert_eq!(
            s.query,
            Query::TimesliceRange {
                from: ts("1992-02-01"),
                to: ts("1992-03-01")
            }
        );
        assert!(parse_tql("SELECT FROM plant DURING 1992-03-01 TO 1992-02-01").is_err());
    }

    #[test]
    fn parse_rollback_and_bitemporal() {
        let s = parse_tql("SELECT FROM plant AS OF 1992-02-12").unwrap();
        assert_eq!(s.query, Query::Rollback { tt: ts("1992-02-12") });
        let b = parse_tql("SELECT FROM plant AT 1992-02-10 AS OF 1992-02-12").unwrap();
        assert_eq!(
            b.query,
            Query::Bitemporal {
                vt: ts("1992-02-10"),
                tt: ts("1992-02-12")
            }
        );
    }

    #[test]
    fn parse_history() {
        let s = parse_tql("SELECT FROM plant HISTORY OF 7").unwrap();
        assert_eq!(
            s.query,
            Query::ObjectHistory {
                object: ObjectId::new(7)
            }
        );
    }

    #[test]
    fn parse_quoted_timestamp_with_space() {
        let s = parse_tql("SELECT FROM plant AT '1992-02-12 08:58:00'").unwrap();
        assert_eq!(
            s.query,
            Query::Timeslice {
                vt: ts("1992-02-12T08:58:00")
            }
        );
    }

    #[test]
    fn parse_where_filters() {
        let s = parse_tql("SELECT FROM plant WHERE sensor = 7 AND unit = 'C' AT 1992-02-12").unwrap();
        assert_eq!(s.filters.len(), 2);
        assert_eq!(s.filters[0], ("sensor".to_string(), Value::Int(7)));
        assert_eq!(s.filters[1], ("unit".to_string(), Value::str("C")));
        assert!(matches!(s.query, Query::Timeslice { .. }));
        // No-space form and floats/bools.
        let t = parse_tql("select from r where x=1.5 and ok=true").unwrap();
        assert_eq!(t.filters[0].1, Value::Float(1.5));
        assert_eq!(t.filters[1].1, Value::Bool(true));
        assert_eq!(t.query, Query::Current);
        // Filter matching.
        use tempora_core::{Element, ElementId};
        let e = Element::new(
            ElementId::new(1),
            ObjectId::new(1),
            Timestamp::from_secs(0),
            Timestamp::from_secs(0),
        )
        .with_attr("sensor", 7_i64)
        .with_attr("unit", "C");
        let s2 = parse_tql("SELECT FROM plant WHERE sensor = 7 AND unit = 'C'").unwrap();
        assert!(s2.matches(&e));
        let s3 = parse_tql("SELECT FROM plant WHERE sensor = 8").unwrap();
        assert!(!s3.matches(&e));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_tql("SELECT plant").unwrap_err();
        assert_eq!(err.expected, "FROM");
        assert_eq!(err.position, 1);
        assert!(parse_tql("").is_err());
        assert!(parse_tql("SELECT FROM plant AT tomorrow").is_err());
        assert!(parse_tql("SELECT FROM plant EXTRA").is_err());
        assert!(parse_tql("SELECT FROM plant HISTORY OF seven").is_err());
    }
}
