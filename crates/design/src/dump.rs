//! Database dump and restore: a plain-text backup format that preserves
//! the *complete* bitemporal history — schemas, every element (current and
//! logically deleted), original transaction times, and element surrogates
//! — so a restored database answers every rollback and as-of query exactly
//! like the original.
//!
//! Format (`TEMPORA DUMP v1`):
//!
//! ```text
//! TEMPORA DUMP v1
//! CREATE TEMPORAL RELATION …;
//! …
//! DATA
//! <tt-µs> I <relation> <object> E<vt-µs>|V<begin-µs>,<end-µs> <name>=<value> …
//! <tt-µs> D <relation> <element-id>
//! ```
//!
//! Operations are replayed in transaction-time order through a
//! [`tempora_time::ManualClock`], so restored stamps equal the originals;
//! a delete and insert sharing one transaction time are replayed as a
//! modification (§2's delete + insert under one transaction). Values are
//! typed (`i:`/`f:`/`b:`/`t:`/`s:`/`n`) with percent-encoding for strings.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use tempora_core::{AttrName, ElementId, ObjectId, ValidTime, Value};
use tempora_time::{Interval, ManualClock, Timestamp};

use crate::database::{Database, DbError};
use crate::ddl::{render_ddl, DdlError};
use crate::snapshot::DbSnapshot;
use tempora_core::Element;

/// One replayable operation. Dumping owns its relation names; restoring
/// borrows them from the dump text.
#[derive(Debug, Clone)]
enum Op<R = String> {
    Insert {
        relation: R,
        element: ElementId,
        object: ObjectId,
        valid: ValidTime,
        attrs: Vec<(AttrName, Value)>,
    },
    Delete {
        relation: R,
        element: ElementId,
    },
}

/// Serializes the whole database (schemas + full history) to the dump
/// format.
#[must_use]
pub fn dump(db: &Database) -> String {
    let mut out = String::from("TEMPORA DUMP v1\n");
    let mut ops: Vec<(Timestamp, usize, Op)> = Vec::new();
    for name in db.relation_names() {
        let schema = db.schema(&name).expect("listed");
        let _ = writeln!(out, "{};", render_ddl(&schema));
        db.with_relation(&name, |rel| {
            for e in rel.relation().iter() {
                push_element_ops(&mut ops, &name, e);
            }
        });
    }
    render_ops(&mut out, ops);
    out
}

/// Serializes a pinned [`DbSnapshot`] to the same dump format: exactly the
/// transaction-time prefix `tt ≤ pin`, with deletions stamped after the
/// pin unwound. Restoring the result reproduces the database as it stood
/// at the pin — the differential harness for concurrent serving replays
/// queries against such restores.
#[must_use]
pub fn dump_snapshot(snap: &DbSnapshot) -> String {
    let mut out = String::from("TEMPORA DUMP v1\n");
    let mut ops: Vec<(Timestamp, usize, Op)> = Vec::new();
    for name in snap.relation_names() {
        let rel = snap.relation(&name).expect("listed");
        let _ = writeln!(out, "{};", render_ddl(rel.schema()));
        for e in rel.iter_pinned() {
            push_element_ops(&mut ops, &name, &e);
        }
    }
    render_ops(&mut out, ops);
    out
}

fn push_element_ops(ops: &mut Vec<(Timestamp, usize, Op)>, relation: &str, e: &Element) {
    // Order key: inserts after deletes at the same tt (so a modify
    // replays delete-then-insert).
    ops.push((
        e.tt_begin,
        1,
        Op::Insert {
            relation: relation.to_string(),
            element: e.id,
            object: e.object,
            valid: e.valid,
            attrs: e.attrs.clone(),
        },
    ));
    if let Some(tt_d) = e.tt_end {
        ops.push((
            tt_d,
            0,
            Op::Delete {
                relation: relation.to_string(),
                element: e.id,
            },
        ));
    }
}

fn render_ops(out: &mut String, mut ops: Vec<(Timestamp, usize, Op)>) {
    ops.sort_by_key(|(tt, phase, _)| (*tt, *phase));
    out.push_str("DATA\n");
    for (tt, _, op) in &ops {
        match op {
            Op::Insert {
                relation,
                object,
                valid,
                attrs,
                ..
            } => {
                let vt = render_valid(valid);
                let _ = write!(out, "{} I {relation} {} {vt}", tt.micros(), object.raw());
                for (name, value) in attrs {
                    let _ = write!(out, " {}={}", name.as_str(), encode_value(value));
                }
                out.push('\n');
            }
            Op::Delete { relation, element } => {
                let _ = writeln!(out, "{} D {relation} {}", tt.micros(), element.raw());
            }
        }
    }
}

/// Restores a dump into a fresh database driven by the given manual clock
/// (pass the same clock you will keep using afterwards). Element
/// surrogates, transaction times, and logical deletions are reproduced
/// exactly.
///
/// # Errors
///
/// Returns parse errors ([`DbError::Ddl`]) or replay errors.
pub fn restore(clock: Arc<ManualClock>, text: &str) -> Result<Database, DbError> {
    let db = Database::new(clock.clone());
    restore_into(&db, &|tt| clock.set(tt), text)?;
    Ok(db)
}

/// [`restore`] decoupled from the clock type: replays a dump into `db`
/// (which must be fresh — no relations yet), calling `set_tt` with each
/// group's transaction time immediately before replaying it so the caller
/// can drive whatever clock `db` was built on (a
/// [`tempora_time::RecoveryClock`] during WAL recovery, a plain
/// [`ManualClock`] otherwise).
///
/// # Errors
///
/// Returns parse errors ([`DbError::Ddl`]) or replay errors.
pub fn restore_into(
    db: &Database,
    set_tt: &dyn Fn(Timestamp),
    text: &str,
) -> Result<(), DbError> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header.trim() != "TEMPORA DUMP v1" {
        return Err(syntax("TEMPORA DUMP v1 header", header));
    }
    // Schemas: DDL statements terminated by ';' until the DATA marker.
    let mut ddl_buf = String::new();
    for line in lines.by_ref() {
        if line.trim() == "DATA" {
            break;
        }
        ddl_buf.push_str(line);
        ddl_buf.push('\n');
    }
    for statement in ddl_buf.split(';') {
        let statement = statement.trim();
        if !statement.is_empty() {
            db.execute_ddl(statement)?;
        }
    }

    // Replay ops grouped by transaction time, parsing one group at a time
    // so a restore never holds the whole history twice (as parsed ops and
    // as restored elements); a delete+insert pair in the same relation at
    // one tt is a modification.
    let mut insert_counter: BTreeMap<&str, u64> = BTreeMap::new();
    let mut ops = lines
        .filter(|line| !line.trim().is_empty())
        .map(|line| parse_op(line, &mut insert_counter))
        .peekable();
    // Map original element ids to restored ids, per relation.
    let mut id_map: BTreeMap<(&str, u64), ElementId> = BTreeMap::new();
    let mut group: Vec<Op<&str>> = Vec::new();
    while let Some(first) = ops.next() {
        let (tt, op) = first?;
        group.push(op);
        while let Some(Ok((next, _))) = ops.peek() {
            if *next != tt {
                break;
            }
            if let Some(Ok((_, op))) = ops.next() {
                group.push(op);
            }
        }
        set_tt(tt);
        // Pair one delete with one insert in the same relation → modify.
        match group.as_mut_slice() {
            [Op::Delete {
                relation: dr,
                element,
            }, Op::Insert {
                relation: ir,
                element: new_old_id,
                object: _,
                valid,
                attrs,
            }] if dr == ir => {
                let old = *id_map
                    .get(&(*dr, element.raw()))
                    .ok_or_else(|| syntax("a previously inserted element", &element.to_string()))?;
                let new_id = db.modify(dr, old, *valid, std::mem::take(attrs))?;
                id_map.insert((*ir, new_old_id.raw()), new_id);
            }
            _ => {
                for op in group.drain(..) {
                    match op {
                        Op::Insert {
                            relation,
                            element,
                            object,
                            valid,
                            attrs,
                        } => {
                            let new_id = db.insert(relation, object, valid, attrs)?;
                            id_map.insert((relation, element.raw()), new_id);
                        }
                        Op::Delete { relation, element } => {
                            let mapped =
                                *id_map.get(&(relation, element.raw())).ok_or_else(|| {
                                    syntax("a previously inserted element", &element.to_string())
                                })?;
                            db.delete(relation, mapped)?;
                        }
                    }
                }
            }
        }
        group.clear();
    }
    Ok(())
}

/// Parses one data line. `insert_counter` numbers each relation's inserts:
/// original element ids were assigned in insertion order.
fn parse_op<'a>(
    line: &'a str,
    insert_counter: &mut BTreeMap<&'a str, u64>,
) -> Result<(Timestamp, Op<&'a str>), DbError> {
    let mut parts = line.split(' ');
    let tt: i64 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| syntax("a transaction time", line))?;
    let tt = Timestamp::from_micros(tt);
    let kind = parts.next().ok_or_else(|| syntax("I or D", line))?;
    let relation = parts
        .next()
        .ok_or_else(|| syntax("a relation name", line))?;
    match kind {
        "I" => {
            let object: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| syntax("an object id", line))?;
            let vt_tok = parts.next().ok_or_else(|| syntax("a valid time", line))?;
            let valid = parse_valid(vt_tok).ok_or_else(|| syntax("a valid time", vt_tok))?;
            let mut attrs = Vec::new();
            for kv in parts {
                let (name, value) = kv
                    .split_once('=')
                    .ok_or_else(|| syntax("name=value", kv))?;
                attrs.push((
                    AttrName::new(name),
                    decode_value(value).ok_or_else(|| syntax("a typed value", value))?,
                ));
            }
            let counter = insert_counter.entry(relation).or_insert(0);
            let element = ElementId::new(*counter);
            *counter += 1;
            Ok((
                tt,
                Op::Insert {
                    relation,
                    element,
                    object: ObjectId::new(object),
                    valid,
                    attrs,
                },
            ))
        }
        "D" => {
            let element: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| syntax("an element id", line))?;
            Ok((
                tt,
                Op::Delete {
                    relation,
                    element: ElementId::new(element),
                },
            ))
        }
        other => Err(syntax("I or D", other)),
    }
}

/// Renders a valid time in the dump's token form: `E<µs>` for events,
/// `V<begin-µs>,<end-µs>` for intervals. The WAL frame format reuses this
/// codec, so changing it is a persistence-format change.
#[must_use]
pub fn render_valid(valid: &ValidTime) -> String {
    match valid {
        ValidTime::Event(t) => format!("E{}", t.micros()),
        ValidTime::Interval(iv) => {
            format!("V{},{}", iv.begin().micros(), iv.end().micros())
        }
    }
}

/// Parses a [`render_valid`] token back; `None` on malformed input.
#[must_use]
pub fn parse_valid(tok: &str) -> Option<ValidTime> {
    if let Some(e) = tok.strip_prefix('E') {
        return Some(ValidTime::Event(Timestamp::from_micros(e.parse().ok()?)));
    }
    let body = tok.strip_prefix('V')?;
    let (b, e) = body.split_once(',')?;
    let interval = Interval::new(
        Timestamp::from_micros(b.parse().ok()?),
        Timestamp::from_micros(e.parse().ok()?),
    )
    .ok()?;
    Some(ValidTime::Interval(interval))
}

/// Encodes a value as a single space-free token (`i:`/`f:`/`b:`/`t:`/`s:`
/// with percent-encoding, `n` for null); floats round-trip bit-exactly via
/// hex. Shared by the dump format and the WAL frame payloads.
#[must_use]
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i:{i}"),
        // Hex bits preserve floats exactly across the round trip.
        Value::Float(f) => format!("f:{:016x}", f.to_bits()),
        Value::Bool(b) => format!("b:{b}"),
        Value::Time(t) => format!("t:{}", t.micros()),
        Value::Null => "n".to_string(),
        Value::Str(s) => {
            let mut out = String::from("s:");
            for ch in s.chars() {
                match ch {
                    // Percent-encode the separators; multibyte characters
                    // pass through verbatim (the decoder works on raw
                    // bytes, so UTF-8 survives untouched).
                    ' ' | '%' | '=' | '\n' | '\t' | '\r' => {
                        let _ = write!(out, "%{:02x}", ch as u32);
                    }
                    _ => out.push(ch),
                }
            }
            out
        }
    }
}

/// Decodes an [`encode_value`] token; `None` on malformed input.
#[must_use]
pub fn decode_value(tok: &str) -> Option<Value> {
    if tok == "n" {
        return Some(Value::Null);
    }
    let (kind, body) = tok.split_once(':')?;
    match kind {
        "i" => Some(Value::Int(body.parse().ok()?)),
        "f" => Some(Value::Float(f64::from_bits(
            u64::from_str_radix(body, 16).ok()?,
        ))),
        "b" => Some(Value::Bool(body.parse().ok()?)),
        "t" => Some(Value::Time(Timestamp::from_micros(body.parse().ok()?))),
        "s" => {
            let mut out = Vec::new();
            let bytes = body.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                if bytes[i] == b'%' {
                    let hex = std::str::from_utf8(bytes.get(i + 1..i + 3)?).ok()?;
                    out.push(u8::from_str_radix(hex, 16).ok()?);
                    i += 3;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            Some(Value::str(std::str::from_utf8(&out).ok()?))
        }
        _ => None,
    }
}

fn syntax(expected: &str, found: &str) -> DbError {
    DbError::Ddl(DdlError::Syntax {
        expected: expected.to_string(),
        found: found.to_string(),
        position: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::Element;
    use tempora_time::{TimeDelta, TransactionClock};

    fn build_source() -> (Database, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
        let db = Database::new(clock.clone());
        db.execute_ddl(
            "CREATE TEMPORAL RELATION ledger (account KEY, amount VARYING)
             AS EVENT WITH STRONGLY BOUNDED 2h 2h",
        )
        .unwrap();
        db.execute_ddl(
            "CREATE TEMPORAL RELATION weeks (employee KEY, project VARYING) AS INTERVAL",
        )
        .unwrap();
        // Mixed history: inserts, a delete, a modification, tricky values.
        clock.set(Timestamp::from_secs(100));
        let a = db
            .insert(
                "ledger",
                ObjectId::new(1),
                Timestamp::from_secs(90),
                vec![
                    (AttrName::new("amount"), Value::Float(12.5)),
                    (AttrName::new("memo"), Value::str("spaces & %signs = fun")),
                ],
            )
            .unwrap();
        clock.set(Timestamp::from_secs(200));
        db.insert(
            "ledger",
            ObjectId::new(2),
            Timestamp::from_secs(210),
            vec![(AttrName::new("amount"), Value::Int(7))],
        )
        .unwrap();
        clock.set(Timestamp::from_secs(300));
        db.modify(
            "ledger",
            a,
            Timestamp::from_secs(95),
            vec![(AttrName::new("amount"), Value::Float(13.25))],
        )
        .unwrap();
        clock.set(Timestamp::from_secs(400));
        let w = db
            .insert(
                "weeks",
                ObjectId::new(3),
                Interval::new(Timestamp::from_secs(0), Timestamp::from_secs(700)).unwrap(),
                vec![(AttrName::new("project"), Value::str("apollo"))],
            )
            .unwrap();
        clock.set(Timestamp::from_secs(500));
        db.delete("weeks", w).unwrap();
        (db, clock)
    }

    fn state_signature(db: &Database, probes: &[i64]) -> Vec<String> {
        let mut sig = Vec::new();
        for name in db.relation_names() {
            db.with_relation(&name, |rel| {
                for e in rel.relation().iter() {
                    sig.push(format!("{name}:{e}"));
                    for (n, v) in &e.attrs {
                        sig.push(format!("  {n}={v}"));
                    }
                }
                for &p in probes {
                    let tt = Timestamp::from_secs(p);
                    let mut ids: Vec<u64> =
                        rel.relation().iter_at(tt).map(|e| e.id.raw()).collect();
                    ids.sort_unstable();
                    sig.push(format!("{name}@{p}:{ids:?}"));
                }
            });
        }
        sig
    }

    #[test]
    fn dump_restore_preserves_full_history() {
        let (db, _clock) = build_source();
        let text = dump(&db);
        assert!(text.starts_with("TEMPORA DUMP v1"));

        let clock2 = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
        let restored = restore(clock2, &text).expect("restore succeeds");

        let probes = [50_i64, 150, 250, 350, 450, 550];
        assert_eq!(
            state_signature(&db, &probes),
            state_signature(&restored, &probes),
            "restored database must be bitemporally identical"
        );

        // And a second dump is byte-identical (stable format).
        assert_eq!(text, dump(&restored));
    }

    #[test]
    fn restored_database_accepts_new_work() {
        let (db, clock) = build_source();
        let text = dump(&db);
        let clock2 = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
        let restored = restore(clock2.clone(), &text).unwrap();
        // Clock continues past the restored history.
        clock2.set(clock.now() + TimeDelta::from_secs(100));
        restored
            .insert(
                "ledger",
                ObjectId::new(9),
                clock2.now() - TimeDelta::from_secs(10),
                vec![],
            )
            .expect("restored relations keep enforcing their schemas");
        // Constraints still live: a wild valid time is rejected.
        assert!(restored
            .insert(
                "ledger",
                ObjectId::new(9),
                clock2.now() + TimeDelta::from_days(30),
                vec![],
            )
            .is_err());
    }

    #[test]
    fn malformed_dumps_rejected() {
        let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
        assert!(restore(clock.clone(), "").is_err());
        assert!(restore(clock.clone(), "WRONG HEADER").is_err());
        assert!(restore(
            clock.clone(),
            "TEMPORA DUMP v1\nCREATE TEMPORAL RELATION r (k KEY) AS EVENT;\nDATA\nbogus line"
        )
        .is_err());
        // Delete of a never-inserted element.
        assert!(restore(
            clock,
            "TEMPORA DUMP v1\nCREATE TEMPORAL RELATION r (k KEY) AS EVENT;\nDATA\n100 D r 5"
        )
        .is_err());
    }

    #[test]
    fn value_encoding_round_trips() {
        let values = [
            Value::Int(-42),
            Value::Float(0.1 + 0.2), // bit-exact via hex
            Value::Bool(true),
            Value::Null,
            Value::Time(Timestamp::from_secs(77)),
            Value::str("plain"),
            Value::str("with spaces, = signs, %percent,\nnewlines\tand tabs"),
            Value::str("unicode: héllo ∀x"),
        ];
        for v in &values {
            let encoded = encode_value(v);
            assert!(!encoded.contains(' '), "encoded value must be space-free: {encoded}");
            let decoded = decode_value(&encoded).unwrap_or_else(|| panic!("decode {encoded}"));
            match (v, &decoded) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, &decoded),
            }
        }
    }

    #[test]
    fn element_display_sanity() {
        // Guard against format drift the dump relies on indirectly.
        let e = Element::new(
            ElementId::new(1),
            ObjectId::new(2),
            Timestamp::from_secs(3),
            Timestamp::from_secs(4),
        );
        assert!(e.to_string().contains("e1"));
    }
}
