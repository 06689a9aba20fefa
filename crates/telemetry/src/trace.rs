//! Span/event recorder with Chrome trace-event export.
//!
//! Design constraints, in priority order:
//!
//! 1. **Never perturb results.** Probes only read the clock and append to
//!    a buffer; they cannot touch tensor data, thread scheduling decisions,
//!    or RNG state. The equivalence test pins this: a traced run is
//!    bit-identical to an untraced one.
//! 2. **Near-zero cost when off.** [`enabled`] is one relaxed atomic load;
//!    a disabled [`span`] constructs a dead guard and records nothing.
//! 3. **Lock-free-enough when on.** Each thread appends to its own ring
//!    buffer behind a `Mutex` that only that thread and the exporter ever
//!    touch, so recording never contends with other recording threads.
//!
//! Timestamps are nanoseconds from a process-wide monotonic epoch
//! (first use of the tracer); export converts to the microseconds the
//! Chrome trace-event format expects. `pid` carries the simulated rank
//! (set per thread via [`set_rank`]) so a distributed epoch renders as
//! one lane group per rank in Perfetto.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable that switches tracing on (`1`/`on`/`true`) or
/// off (unset, empty, `0`, `off`, `false`).
pub const ENV_TRACE: &str = "DGNN_TRACE";

/// Per-thread ring capacity; the oldest events are overwritten once a
/// thread records more than this without an export.
pub const RING_CAPACITY: usize = 1 << 16;

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether tracing is currently on. First call reads [`ENV_TRACE`]; after
/// that it is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(ENV_TRACE)
        .map(|v| {
            let v = v.trim();
            !(v.is_empty()
                || v == "0"
                || v.eq_ignore_ascii_case("off")
                || v.eq_ignore_ascii_case("false"))
        })
        .unwrap_or(false);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Overrides the environment switch for the rest of the process (used by
/// tests and the bench harness to trace without re-exec'ing).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the tracer's process-wide monotonic epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One completed span, as stored in the ring and handed to the exporter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Span name (`forward`, `comm`, `store_fault`, ...).
    pub name: &'static str,
    /// Span category — groups names in trace viewers.
    pub cat: &'static str,
    /// Simulated rank (exported as `pid`); 0 outside `run_ranks`.
    pub rank: u32,
    /// Recording thread id (exported as `tid`), unique per OS thread.
    pub tid: u32,
    /// Start, nanoseconds since the tracer epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Default)]
struct Ring {
    events: Vec<Event>,
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        let mut out = self.events.split_off(self.head);
        out.append(&mut self.events);
        self.head = 0;
        self.dropped = 0;
        out
    }
}

static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static LOCAL_RING: OnceCell<Arc<Mutex<Ring>>> = const { OnceCell::new() };
    static LOCAL_TID: Cell<u32> = const { Cell::new(0) };
    static LOCAL_RANK: Cell<u32> = const { Cell::new(0) };
}

fn tid() -> u32 {
    LOCAL_TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Tags the current thread with a simulated rank; spans it records carry
/// the rank as the trace `pid` so each rank gets its own Perfetto lane
/// group. `dgnn_sim::run_ranks` calls this on every rank thread.
pub fn set_rank(rank: u32) {
    LOCAL_RANK.with(|r| r.set(rank));
}

/// The rank tag of the current thread (0 unless [`set_rank`] was called).
pub fn current_rank() -> u32 {
    LOCAL_RANK.with(|r| r.get())
}

fn record(ev: Event) {
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(Mutex::new(Ring::default()));
            RINGS
                .lock()
                .expect("trace ring registry poisoned")
                .push(Arc::clone(&ring));
            ring
        });
        ring.lock().expect("trace ring poisoned").push(ev);
    });
}

/// RAII span guard: records a completed event when dropped (or when
/// [`Span::finish_us`] is called). Dead weight when tracing is off.
pub struct Span {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    armed: bool,
}

impl Span {
    /// Ends the span, records it, and returns its duration in
    /// microseconds (0 when tracing is off).
    pub fn finish_us(mut self) -> u64 {
        self.close() / 1_000
    }

    fn close(&mut self) -> u64 {
        if !self.armed {
            return 0;
        }
        self.armed = false;
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        record(Event {
            name: self.name,
            cat: self.cat,
            rank: current_rank(),
            tid: tid(),
            ts_ns: self.start_ns,
            dur_ns,
        });
        dur_ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a span in the default `span` category.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_cat(name, "span")
}

/// Opens a span with an explicit category.
#[inline]
pub fn span_cat(name: &'static str, cat: &'static str) -> Span {
    if enabled() {
        Span {
            name,
            cat,
            start_ns: now_ns(),
            armed: true,
        }
    } else {
        Span {
            name,
            cat,
            start_ns: 0,
            armed: false,
        }
    }
}

/// A deferred-name timer for call sites that decide the span name after
/// the timed section (e.g. a store fetch that turns out to be a prefetch
/// hit vs a demand fault). Not recording it (just dropping) is free.
pub struct Timer {
    start_ns: Option<u64>,
}

impl Timer {
    /// Starts the timer (a no-op shell when tracing is off).
    #[inline]
    pub fn start() -> Self {
        Self {
            start_ns: enabled().then(now_ns),
        }
    }

    /// Stops the timer, records a span, and returns the elapsed
    /// nanoseconds (0 when tracing is off).
    pub fn stop_ns(self, name: &'static str, cat: &'static str) -> u64 {
        let Some(start_ns) = self.start_ns else {
            return 0;
        };
        let dur_ns = now_ns().saturating_sub(start_ns);
        record(Event {
            name,
            cat,
            rank: current_rank(),
            tid: tid(),
            ts_ns: start_ns,
            dur_ns,
        });
        dur_ns
    }

    /// Stops the timer, records a span, and returns microseconds.
    pub fn stop_us(self, name: &'static str, cat: &'static str) -> u64 {
        self.stop_ns(name, cat) / 1_000
    }
}

/// Drains every thread's ring into one list sorted by start time.
/// Events recorded after this call accumulate for the next drain.
pub fn take_events() -> Vec<Event> {
    let rings = RINGS.lock().expect("trace ring registry poisoned");
    let mut out = Vec::new();
    for ring in rings.iter() {
        out.append(&mut ring.lock().expect("trace ring poisoned").drain());
    }
    out.sort_by_key(|e| (e.ts_ns, e.rank, e.tid));
    out
}

/// Discards all buffered events.
pub fn clear() {
    let _ = take_events();
}

/// Total events overwritten by ring wrap-around since the last drain.
pub fn dropped_events() -> u64 {
    let rings = RINGS.lock().expect("trace ring registry poisoned");
    rings
        .iter()
        .map(|r| r.lock().expect("trace ring poisoned").dropped)
        .sum()
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders events as a Chrome trace-event JSON array (complete `"X"`
/// events, timestamps in microseconds). Load the output in Perfetto or
/// `chrome://tracing`; `pid` is the simulated rank, `tid` the thread.
pub fn export_chrome(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 16);
    out.push_str("[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("  {\"name\":\"");
        escape_into(&mut out, e.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, e.cat);
        out.push_str("\",\"ph\":\"X\",\"pid\":");
        out.push_str(&e.rank.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&format!("{:.3}", e.ts_ns as f64 / 1_000.0));
        out.push_str(",\"dur\":");
        out.push_str(&format!("{:.3}", e.dur_ns as f64 / 1_000.0));
        out.push('}');
        if i + 1 != events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        set_enabled(false);
        clear();
        let s = span("dead");
        assert_eq!(s.finish_us(), 0);
        let t = Timer::start();
        assert_eq!(t.stop_ns("dead", "test"), 0);
        assert!(take_events().iter().all(|e| e.name != "dead"));
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut ring = Ring::default();
        for i in 0..(RING_CAPACITY as u64 + 5) {
            ring.push(Event {
                name: "x",
                cat: "t",
                rank: 0,
                tid: 1,
                ts_ns: i,
                dur_ns: 0,
            });
        }
        assert_eq!(ring.dropped, 5);
        let drained = ring.drain();
        assert_eq!(drained.len(), RING_CAPACITY);
        // Oldest surviving event is #5; order is preserved across the wrap.
        assert_eq!(drained[0].ts_ns, 5);
        assert_eq!(drained.last().unwrap().ts_ns, RING_CAPACITY as u64 + 4);
    }

    #[test]
    fn export_escapes_and_parses() {
        let events = [Event {
            name: "a\"b",
            cat: "c\\d",
            rank: 1,
            tid: 2,
            ts_ns: 1_500,
            dur_ns: 2_000,
        }];
        let json = export_chrome(&events);
        crate::jsonlint::validate(&json).expect("exported trace must be valid JSON");
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"pid\":1"));
    }
}
