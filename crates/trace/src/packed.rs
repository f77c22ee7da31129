//! The journal's retained form: every admitted event packed into one
//! byte record, rebuilt as a [`TraceEvent`] only when the journal is
//! drained.
//!
//! A record is, in order:
//!
//! | field | bytes |
//! |---|---|
//! | phase: 0 instant, 1 complete span | 1 |
//! | `ts_ns`, little-endian | 8 |
//! | `dur_ns`, little-endian (complete spans only) | 8 |
//! | tid, LEB128 | 1+ |
//! | category id | 2 |
//! | name length (LEB128), then its UTF-8 bytes | 1+ |
//! | each arg: kind, key id (2 bytes), payload | 4+ |
//! | end of args: kind 0 | 1 |
//!
//! Arg payloads are typed: a `U64` and an `F64`'s bits are 8-byte
//! little-endian words, a `Bool` is one byte, a `Str` is its length
//! (LEB128) then its bytes. Categories and arg keys are `&'static str`,
//! so each journal interns them in a [`Statics`] table that the program
//! text bounds. Names are stored inline: a table keyed by names would
//! grow with request input.

use crate::event::{ArgValue, Phase, TraceEvent};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

const END: u8 = 0;
const U64: u8 = 1;
const F64: u8 = 2;
const STR: u8 = 3;
const BOOL: u8 = 4;

/// One journal's table of interned categories and arg keys.
#[derive(Default)]
pub(crate) struct Statics {
    ids: HashMap<&'static str, u16>,
    strs: Vec<&'static str>,
}

impl Statics {
    /// The id of `s`, assigned on first sight. Equal contents share an
    /// id, so the table holds each distinct string of the program once.
    pub(crate) fn intern(&mut self, s: &'static str) -> u16 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u16::try_from(self.strs.len()).expect("at most 65536 trace keys and categories");
        self.strs.push(s);
        self.ids.insert(s, id);
        id
    }

    /// The strings by id.
    pub(crate) fn strs(&self) -> &[&'static str] {
        &self.strs
    }
}

/// FxHash over the address and length of a `&'static str`.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One thread's cache of a journal's [`Statics`] ids, keyed by each
/// string's address and length, so the per-event lookups take no lock.
#[derive(Default)]
pub(crate) struct LocalIds(HashMap<(usize, usize), u16, BuildHasherDefault<AddrHasher>>);

impl LocalIds {
    /// The id of `s` in `statics`, interning it there on a miss.
    pub(crate) fn get(&mut self, s: &'static str, statics: &Mutex<Statics>) -> u16 {
        *self
            .0
            .entry((s.as_ptr() as usize, s.len()))
            .or_insert_with(|| statics.lock().expect("trace statics").intern(s))
    }
}

fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push((n as u8) | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `event`'s record to `out`, stamped with `tid` (not the
/// event's own), with `id` resolving its category and arg keys.
pub(crate) fn encode(
    out: &mut Vec<u8>,
    event: &TraceEvent,
    tid: u64,
    mut id: impl FnMut(&'static str) -> u16,
) {
    match event.ph {
        Phase::Instant => {
            out.push(0);
            out.extend_from_slice(&event.ts_ns.to_le_bytes());
        }
        Phase::Complete { dur_ns } => {
            out.push(1);
            out.extend_from_slice(&event.ts_ns.to_le_bytes());
            out.extend_from_slice(&dur_ns.to_le_bytes());
        }
    }
    put_varint(out, tid);
    out.extend_from_slice(&id(event.cat).to_le_bytes());
    put_str(out, &event.name);
    for (key, value) in &event.args {
        let kind = match value {
            ArgValue::U64(_) => U64,
            ArgValue::F64(_) => F64,
            ArgValue::Str(_) => STR,
            ArgValue::Bool(_) => BOOL,
        };
        out.push(kind);
        out.extend_from_slice(&id(key).to_le_bytes());
        match value {
            ArgValue::U64(v) => out.extend_from_slice(&v.to_le_bytes()),
            ArgValue::F64(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
            ArgValue::Str(v) => put_str(out, v),
            ArgValue::Bool(v) => out.push(u8::from(*v)),
        }
    }
    out.push(END);
}

/// A cursor over records written by [`encode`].
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        head
    }

    fn byte(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn word(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn varint(&mut self) -> u64 {
        let mut n = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            n |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return n;
            }
            shift += 7;
        }
    }

    fn id(&mut self, statics: &[&'static str]) -> &'static str {
        statics[usize::from(u16::from_le_bytes(
            self.take(2).try_into().expect("2 bytes"),
        ))]
    }

    fn str(&mut self) -> String {
        let len = usize::try_from(self.varint()).expect("record length fits usize");
        String::from_utf8(self.take(len).to_vec()).expect("records store UTF-8")
    }
}

/// Rebuilds the events of `bytes`, in record order, resolving ids
/// through `statics`.
pub(crate) fn decode(bytes: &[u8], statics: &[&'static str]) -> Vec<TraceEvent> {
    let mut reader = Reader { bytes };
    let mut events = Vec::new();
    while !reader.bytes.is_empty() {
        let complete = reader.byte() == 1;
        let ts_ns = reader.word();
        let ph = if complete {
            Phase::Complete {
                dur_ns: reader.word(),
            }
        } else {
            Phase::Instant
        };
        let tid = reader.varint();
        let cat = reader.id(statics);
        let name = reader.str();
        let mut args = Vec::new();
        loop {
            let kind = reader.byte();
            if kind == END {
                break;
            }
            let key = reader.id(statics);
            let value = match kind {
                U64 => ArgValue::U64(reader.word()),
                F64 => ArgValue::F64(f64::from_bits(reader.word())),
                STR => ArgValue::Str(reader.str()),
                _ => ArgValue::Bool(reader.byte() == 1),
            };
            args.push((key, value));
        }
        events.push(TraceEvent {
            name,
            cat,
            ph,
            ts_ns,
            tid,
            args,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_round_trips_with_its_tid_replaced() {
        let event = TraceEvent {
            name: "http_request".into(),
            cat: "http",
            ph: Phase::Complete { dur_ns: u64::MAX },
            ts_ns: 1 << 40,
            tid: 7,
            args: vec![
                ("request_id", "0a1b2c3d-000042".into()),
                ("route", "/v1/analyze".into()),
                ("code", 200u64.into()),
                ("mass", ArgValue::F64(-0.0)),
                ("memo", true.into()),
            ],
        };
        let mut statics = Statics::default();
        let mut bytes = Vec::new();
        encode(&mut bytes, &event, 300, |s| statics.intern(s));
        // 1 + 8 + 8 + 2 (tid) + 2 + 13 + (4 + 15) + (4 + 11) + 11 + 11
        // + 4 + 1
        assert_eq!(bytes.len(), 95);
        let back = decode(&bytes, statics.strs());
        assert_eq!(back, [TraceEvent { tid: 300, ..event }]);
        assert!(back[0]
            .arg("mass")
            .and_then(ArgValue::as_f64)
            .unwrap()
            .is_sign_negative());
    }

    #[test]
    fn equal_contents_share_an_id() {
        let mut statics = Statics::default();
        let owned = String::from("hop");
        let leaked: &'static str = Box::leak(owned.into_boxed_str());
        assert_eq!(statics.intern("hop"), statics.intern(leaked));
        assert_eq!(statics.intern("cycle"), 1);
        assert_eq!(statics.strs(), ["hop", "cycle"]);
    }

    #[test]
    fn varints_cover_the_whole_range() {
        for n in [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, n);
            assert_eq!(Reader { bytes: &out }.varint(), n);
        }
    }
}
