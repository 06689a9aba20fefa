//! The benchmark's own span recorder for the traced run: one span around
//! each call into a layer, kept in memory and written out when the
//! workload ends. Spans share the clock of the program's own
//! `dgnn_telemetry` events, so both line up in one trace file.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::adapter;

/// One completed (or, while its guard lives, still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// `<layer>.<call>`; the benchmark's own glue is layer `bench`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The sample, window or round the span belongs to.
    pub group: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    group: u32,
}

thread_local! {
    // Every call into a layer is made from the main thread, so one
    // thread's recorder sees them all and needs no lock.
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Switches recording on or off; off, a span costs one branch.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Sets the identifier that the spans opened from now on share.
pub fn set_group(group: u32) {
    REC.with(|r| r.borrow_mut().group = group);
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Opens a span named `name` under whichever span is open now.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let idx = r.spans.len() as u32;
        let rec = SpanRec {
            name,
            start_ns: adapter::now_ns(),
            end_ns: 0,
            parent: r.open.last().copied(),
            group: r.group,
        };
        r.spans.push(rec);
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = adapter::now_ns();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            // Guards drop in reverse order of creation, but a `take` in
            // between empties the list: then there is nothing to close.
            if let Some(rec) = r.spans.get_mut(idx as usize) {
                rec.end_ns = end;
            }
            r.open.retain(|&o| o != idx);
        });
    }
}

/// Hands over every span recorded so far.
pub fn take() -> Vec<SpanRec> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Self time of each span: its duration minus what its children cover.
pub fn self_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed per layer, in milliseconds.
pub fn layer_self_ms(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Share of the root spans' time that named layers, not the benchmark's
/// own glue, account for.
pub fn coverage(spans: &[SpanRec]) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(SpanRec::dur_ns)
        .sum();
    let glue = layer_self_ms(spans).get("bench").copied().unwrap_or(0.0);
    if total == 0 {
        return 0.0;
    }
    1.0 - glue * 1e6 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            rec("bench.step", 0, 100_000_000, None),
            rec("graph.prepare_task", 10_000_000, 30_000_000, Some(0)),
            rec("core.train_single", 30_000_000, 95_000_000, Some(0)),
            rec("tensor.spmm", 40_000_000, 50_000_000, Some(2)),
        ];
        assert_eq!(
            self_ns(&spans),
            vec![15_000_000, 20_000_000, 55_000_000, 10_000_000]
        );
        let by_layer = layer_self_ms(&spans);
        assert_eq!(by_layer["bench"], 15.0);
        assert_eq!(by_layer["core"], 55.0);
        assert_eq!(by_layer["tensor"], 10.0);
        assert!((coverage(&spans) - 0.85).abs() < 1e-12);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn records_nesting_and_groups_only_when_enabled() {
        set_enabled(false);
        drop(span("core.dead"));
        assert!(take().is_empty());

        set_enabled(true);
        set_group(7);
        {
            let _outer = span("bench.step");
            let _inner = span("core.train_single");
        }
        drop(span("serve.advance"));
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.group == 7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].layer(), "core");
    }
}
