//! The traced run's file: the benchmark's spans and the program's own
//! trace events in one Chrome trace (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;

use crate::adapter::TraceEvent;
use crate::spans::SpanRec;

/// The process lane the benchmark's spans are drawn in; the program's
/// events use their simulated rank, which starts at 0.
const BENCH_PID: u32 = 9999;

/// Program events beyond this many are left out of the file (and said
/// so in it): a trace viewer stops being usable long before.
const MAX_PROGRAM_EVENTS: usize = 200_000;

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Renders one JSON array of complete (`"ph":"X"`) events, timestamps in
/// microseconds on the clock both kinds of event share.
pub fn render(spans: &[SpanRec], program: &[TraceEvent]) -> String {
    let kept = &program[..program.len().min(MAX_PROGRAM_EVENTS)];
    let mut out = String::with_capacity((spans.len() + kept.len()) * 128 + 256);
    out.push_str("[\n");
    // Names and categories are identifiers from source code: nothing in
    // them needs escaping.
    write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{BENCH_PID},\"tid\":0,\
         \"args\":{{\"name\":\"benchmark spans ({} program events, {} left out)\"}}}}",
        program.len(),
        program.len() - kept.len()
    )
    .expect("string write");
    for (id, s) in spans.iter().enumerate() {
        write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{BENCH_PID},\"tid\":0,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"group\":{}}}}}",
            s.name,
            s.layer(),
            micros(s.start_ns),
            micros(s.dur_ns()),
            s.parent.map_or(-1, i64::from),
            s.group
        )
        .expect("string write");
    }
    for e in kept {
        write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3}}}",
            e.name,
            e.cat,
            e.rank,
            e.tid,
            micros(e.ts_ns),
            micros(e.dur_ns)
        )
        .expect("string write");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn renders_valid_json_with_both_kinds_of_event() {
        let spans = [
            SpanRec {
                name: "bench.timed",
                start_ns: 1_000,
                end_ns: 9_000,
                parent: None,
                group: 3,
            },
            SpanRec {
                name: "core.train_single",
                start_ns: 2_000,
                end_ns: 8_500,
                parent: Some(0),
                group: 3,
            },
        ];
        let program = [TraceEvent {
            name: "forward",
            cat: "engine",
            rank: 1,
            tid: 4,
            ts_ns: 2_500,
            dur_ns: 3_000,
        }];
        let text = render(&spans, &program);
        crate::adapter::validate_json(&text).expect("valid JSON");
        let doc = json::parse(&text).unwrap();
        let events = doc.as_arr().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[2].get("name").and_then(Value::as_str),
            Some("core.train_single")
        );
        assert_eq!(events[2].get("cat").and_then(Value::as_str), Some("core"));
        assert_eq!(events[2].get("dur").and_then(Value::as_f64), Some(6.5));
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(args.get("group").and_then(Value::as_f64), Some(3.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .and_then(Value::as_f64),
            Some(-1.0)
        );
        assert_eq!(events[3].get("pid").and_then(Value::as_f64), Some(1.0));
        crate::adapter::validate_json(&render(&[], &[])).expect("an empty trace is valid too");
    }
}
