//! Every event the journal admits drains as it was emitted: random
//! events from two threads, through every entry point, with and without
//! an ambient context, carrying every kind of argument value — NaN
//! payloads, signed zeros, infinities, subnormals, `u64::MAX`, empty,
//! long and non-ASCII strings — come back field by field (floats bit
//! for bit), in order, with the refused ones counted.

use proptest::collection::vec;
use proptest::prelude::*;
use whart_trace::{ArgValue, Phase, Trace, TraceEvent};

const KEYS: [&str; 7] = ["", "p_fl", "p_rc", "request_id", "größe", "ключ", "🔑"];
const CATS: [&str; 5] = ["", "engine", "solver.fast", "http", "µ.cat"];
const FLOATS: [u64; 12] = [
    0x7ff8_0000_0000_0000, // quiet NaN
    0x7ff8_dead_beef_0001, // quiet NaN with a payload
    0x7ff0_0000_0000_0001, // signalling NaN
    0xfff8_0000_0000_0042, // negative NaN with a payload
    0x0000_0000_0000_0000, // +0
    0x8000_0000_0000_0000, // -0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x0000_0000_0000_0001, // smallest subnormal
    0x800f_ffff_ffff_ffff, // largest negative subnormal
    0x0010_0000_0000_0000, // smallest normal
    0x3fe0_0000_0000_0000, // 0.5
];
const PALETTE: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\0', 'é', 'µ', '✓', '𝄞',
];

/// A string drawn from `seed`: empty, non-ASCII, or up to 300 chars of
/// a palette mixing ASCII, escapes and 2-, 3- and 4-byte UTF-8.
fn text(seed: u64) -> String {
    match seed % 5 {
        0 => String::new(),
        1 => "µ-ünïcode ✓ 𝄞".into(),
        _ => {
            let len = (seed >> 8) % 300;
            (0..len)
                .map(|i| PALETTE[((seed >> (i % 48)) as usize + i as usize) % PALETTE.len()])
                .collect()
        }
    }
}

/// An argument value of kind `kind % 4` drawn from `raw`.
fn value(kind: u8, raw: u64) -> ArgValue {
    match kind % 4 {
        0 => ArgValue::U64(match raw % 3 {
            0 => u64::MAX,
            1 => 0,
            _ => raw,
        }),
        1 => ArgValue::F64(f64::from_bits(if raw % 2 == 0 {
            FLOATS[(raw / 2 % FLOATS.len() as u64) as usize]
        } else {
            raw
        })),
        2 => ArgValue::Str(text(raw)),
        _ => ArgValue::Bool(raw % 2 == 1),
    }
}

fn args(raw: Vec<(u8, u8, u64)>) -> Vec<(&'static str, ArgValue)> {
    raw.into_iter()
        .map(|(key, kind, v)| (KEYS[usize::from(key) % KEYS.len()], value(kind, v)))
        .collect()
}

/// One event to emit, and the entry point to emit it through.
#[derive(Debug, Clone)]
struct Op {
    /// 0: `span` + `arg`, 1: `instant`, 2: `instant_with`, 3: `emit_with`.
    via: u8,
    name: String,
    cat: &'static str,
    args: Vec<(&'static str, ArgValue)>,
    /// `emit_with`'s own duration; `None` emits an instant.
    dur_ns: Option<u64>,
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..4,
        any::<u64>(),
        0usize..CATS.len(),
        vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..6),
        any::<u64>(),
    )
        .prop_map(|(via, name, cat, raw, dur)| Op {
            via,
            name: text(name),
            cat: CATS[cat],
            args: args(raw),
            dur_ns: (dur % 3 != 0).then_some(dur >> 2),
        })
}

/// Emits `op` and returns the event the journal should hold for it:
/// `ts_ns` and the phase are exact for `emit_with` only (the journal
/// stamps the others), and `tid` is left for the caller.
fn emit(trace: &Trace, op: &Op, context: &[(&'static str, ArgValue)]) -> TraceEvent {
    let mut expected = TraceEvent {
        name: op.name.clone(),
        cat: op.cat,
        ph: Phase::Instant,
        ts_ns: 0,
        tid: 0,
        args: context.iter().cloned().chain(op.args.clone()).collect(),
    };
    match op.via {
        0 => {
            let mut span = trace.span(op.name.clone(), op.cat);
            for (key, value) in &op.args {
                span.arg(key, value.clone());
            }
            expected.ph = Phase::Complete { dur_ns: 0 };
        }
        1 => trace.instant(op.name.clone(), op.cat, op.args.clone()),
        2 => trace.instant_with(op.name.as_str(), op.cat, || op.args.clone()),
        _ => {
            expected.args = op.args.clone();
            expected.ts_ns = trace.now_ns();
            if let Some(dur_ns) = op.dur_ns {
                expected.ph = Phase::Complete { dur_ns };
            }
            let built = TraceEvent {
                tid: u64::MAX,
                ..expected.clone()
            };
            trace.emit_with(|| built);
        }
    }
    expected
}

fn same_value(a: &ArgValue, b: &ArgValue) -> bool {
    match (a, b) {
        (ArgValue::F64(x), ArgValue::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Whether `got` is `want` field by field; the timing is compared only
/// where the emitter chose it (`emit_with`).
fn same_event(got: &TraceEvent, want: &TraceEvent, via: u8) -> bool {
    let timing = match (got.ph, want.ph) {
        (Phase::Instant, Phase::Instant) => via != 3 || got.ts_ns == want.ts_ns,
        (Phase::Complete { dur_ns: a }, Phase::Complete { dur_ns: b }) => {
            via != 3 || (a == b && got.ts_ns == want.ts_ns)
        }
        _ => false,
    };
    timing
        && got.name == want.name
        && got.cat == want.cat
        && got.args.len() == want.args.len()
        && got
            .args
            .iter()
            .zip(&want.args)
            .all(|((k, a), (l, b))| k == l && same_value(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn drained_events_equal_the_emitted_ones(
        threads in (vec(op(), 0..300), vec(op(), 0..300)),
        context in vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..3),
        scoped in any::<bool>(),
        spare in 0usize..700,
    ) {
        let (first, second) = threads;
        let total = first.len() + second.len();
        // From a journal with room for everything to one that refuses
        // most events.
        let capacity = spare.max(1);
        let trace = Trace::with_capacity(capacity);
        let context = if scoped { args(context) } else { Vec::new() };
        let scope = trace.context_scope(context.clone());
        let expected: Vec<Vec<TraceEvent>> = std::thread::scope(|s| {
            let workers: Vec<_> = [&first, &second]
                .into_iter()
                .map(|ops| {
                    let (trace, context) = (trace.clone(), &context);
                    s.spawn(move || ops.iter().map(|op| emit(&trace, op, context)).collect())
                })
                .collect();
            // Explicit joins wait for the thread-exit flush.
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        drop(scope);
        let log = trace.drain();
        let admitted = total.min(capacity);
        prop_assert_eq!(log.len(), admitted);
        prop_assert_eq!(log.dropped, (total - admitted) as u64);
        prop_assert!(log.events.windows(2).all(|w| (w[0].ts_ns, w[0].tid) <= (w[1].ts_ns, w[1].tid)));
        // Each thread's admitted events are a prefix of what it emitted
        // (a full journal stays full until drained), under one tid.
        let mut tids: Vec<u64> = log.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        prop_assert!(tids.len() <= 2);
        let of = |tid: u64| -> Vec<&TraceEvent> { log.events.iter().filter(|e| e.tid == tid).collect() };
        let prefix_of = |got: &[&TraceEvent], ops: &[Op], want: &[TraceEvent]| {
            got.len() <= want.len()
                && got.iter().zip(want).zip(ops).all(|((g, w), op)| same_event(g, w, op.via))
        };
        let groups: Vec<Vec<&TraceEvent>> = tids.iter().map(|&t| of(t)).collect();
        let matched = match groups.as_slice() {
            [] => true,
            [only] => prefix_of(only, &first, &expected[0]) || prefix_of(only, &second, &expected[1]),
            [a, b] => {
                (prefix_of(a, &first, &expected[0]) && prefix_of(b, &second, &expected[1]))
                    || (prefix_of(a, &second, &expected[1]) && prefix_of(b, &first, &expected[0]))
            }
            _ => false,
        };
        prop_assert!(matched, "drained events differ from the emitted ones");
        // The drained log renders: every float, NaN included, and every
        // string survives the JSONL writer.
        prop_assert_eq!(log.to_jsonl().lines().count(), admitted + usize::from(admitted < total));
    }
}
