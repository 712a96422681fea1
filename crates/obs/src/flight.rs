//! Request-scoped tracing and the global flight recorder.
//!
//! A [`TraceContext`] names one logical request (`TraceId`) and one hop of
//! it (`SpanId`); the crawler mints a fresh trace per logical fetch and a
//! fresh span per attempt, `HttpClient` carries the pair on the wire in the
//! [`TRACE_HEADER`] request header, and the server extracts (or mints) the
//! context and echoes the trace id on the response — so one crawl request
//! yields a joinable client+server span tree.
//!
//! Completed hops are recorded as [`SpanRecord`]s into the process-global
//! [`FlightRecorder`]: one lock over a ring retaining the last
//! [`FLIGHT_CAPACITY`] spans and a reservoir of the [`SLOW_CAPACITY`]
//! slowest. Recording a span copies one fixed-size record and allocates
//! nothing.
//!
//! Span recording is *never* gated by the log level: the recorder exists to
//! answer "what just happened" after the fact, and the spans you need most
//! are the ones you did not know to enable beforehand. It records
//! structure, not text; log events go to the sink in [`crate::trace`].

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::trace::epoch;

/// Request header carrying `"<16-hex trace>-<16-hex span>"`; responses echo
/// the bare 16-hex trace id under the same name.
pub const TRACE_HEADER: &str = "X-Steam-Trace";

/// The splitmix64 finalizer — the workspace's one cheap mixer: trace and
/// span ids, the fault injector's draws, synthesis seeds and the serve
/// bench's target mix are all drawn through it.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Identifies one logical request end-to-end, across retries and hops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one hop (one attempt on one side) within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

fn nonzero(v: u64) -> u64 {
    if v == 0 {
        1
    } else {
        v
    }
}

/// Exactly 16 hex digits; `from_str_radix` alone would also take a sign.
fn hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

impl TraceId {
    /// The n-th id minted from `seed`. Deterministic: two processes (or two
    /// server modes) fed the same sequential request stream mint the same
    /// ids, which keeps cross-mode byte-identity tests honest.
    pub fn mint_seeded(seed: u64, n: u64) -> TraceId {
        TraceId(nonzero(splitmix64(seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d))))
    }

    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn from_hex(s: &str) -> Option<TraceId> {
        hex16(s).map(TraceId)
    }
}

impl SpanId {
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn from_hex(s: &str) -> Option<SpanId> {
        hex16(s).map(SpanId)
    }
}

/// Process-global trace-id mint for client-originated requests.
pub fn mint_trace_id() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    TraceId::mint_seeded(0x5354_4541_4d63_6c69, NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Process-global span-id mint. Span ids never appear in response bytes, so
/// (unlike server-minted trace ids) they carry no determinism obligation.
pub fn next_span_id() -> SpanId {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    SpanId(nonzero(splitmix64(
        0x5354_4541_4d73_7076 ^ NEXT.fetch_add(1, Ordering::Relaxed),
    )))
}

/// Microseconds since the process-wide tracing epoch — the time base every
/// [`SpanRecord::start_us`] is relative to.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// The (trace, span) pair one hop operates under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    pub trace: TraceId,
    pub span: SpanId,
}

impl TraceContext {
    /// Wire form for the request header: `"<16-hex trace>-<16-hex span>"`.
    pub fn header_value(&self) -> String {
        format!("{:016x}-{:016x}", self.trace.0, self.span.0)
    }

    /// Parses the request-header wire form; `None` on any malformation
    /// (callers treat a bad header as absent and mint instead).
    pub fn parse(s: &str) -> Option<TraceContext> {
        let (trace, span) = s.trim().split_once('-')?;
        Some(TraceContext { trace: TraceId::from_hex(trace)?, span: SpanId::from_hex(span)? })
    }
}

/// Which side of the wire a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// An outbound attempt, timed around connect+send+receive.
    Client,
    /// Server-side handling of one parsed request.
    Server,
}

impl SpanKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Client => "client",
            SpanKind::Server => "server",
        }
    }
}

/// Inline name capacity of a [`SpanRecord`]; longer names are clipped.
pub const SPAN_NAME_MAX: usize = 48;
/// Inline annotation capacity of a [`SpanRecord`]; longer notes are clipped.
pub const SPAN_ANNOT_MAX: usize = 48;

/// One completed hop. `Copy` with inline fixed-size string storage, so
/// recording one allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub span: SpanId,
    /// Parent span id; `SpanId(0)` marks a root span.
    pub parent: SpanId,
    pub kind: SpanKind,
    /// Static subsystem tag (`"http"`, `"crawler"`, ...).
    pub target: &'static str,
    /// Microseconds since the tracing epoch when the hop began.
    pub start_us: u64,
    pub duration_us: u64,
    /// HTTP status of the hop; 0 when no response was received.
    pub status: u16,
    name_len: u8,
    annot_len: u8,
    name_buf: [u8; SPAN_NAME_MAX],
    annot_buf: [u8; SPAN_ANNOT_MAX],
}

/// Clips `s` to at most `max` bytes on a char boundary.
fn clip(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

impl SpanRecord {
    pub fn new(
        trace: TraceId,
        span: SpanId,
        parent: SpanId,
        kind: SpanKind,
        target: &'static str,
        name: &str,
    ) -> SpanRecord {
        let mut record = SpanRecord {
            trace,
            span,
            parent,
            kind,
            target,
            start_us: 0,
            duration_us: 0,
            status: 0,
            name_len: 0,
            annot_len: 0,
            name_buf: [0; SPAN_NAME_MAX],
            annot_buf: [0; SPAN_ANNOT_MAX],
        };
        let name = clip(name, SPAN_NAME_MAX);
        record.name_buf[..name.len()].copy_from_slice(name.as_bytes());
        record.name_len = name.len() as u8;
        record
    }

    pub fn with_status(mut self, status: u16) -> Self {
        self.status = status;
        self
    }

    pub fn with_timing(mut self, start_us: u64, duration_us: u64) -> Self {
        self.start_us = start_us;
        self.duration_us = duration_us;
        self
    }

    pub fn with_annotation(mut self, annotation: &str) -> Self {
        let annotation = clip(annotation, SPAN_ANNOT_MAX);
        self.annot_buf[..annotation.len()].copy_from_slice(annotation.as_bytes());
        self.annot_len = annotation.len() as u8;
        self
    }

    pub fn name(&self) -> &str {
        std::str::from_utf8(&self.name_buf[..self.name_len as usize]).unwrap_or("")
    }

    /// The (trace, span) pair this hop ran under.
    pub fn context(&self) -> TraceContext {
        TraceContext { trace: self.trace, span: self.span }
    }

    pub fn annotation(&self) -> &str {
        std::str::from_utf8(&self.annot_buf[..self.annot_len as usize]).unwrap_or("")
    }
}

/// Spans retained by the global ring (see [`FlightRecorder`]).
pub const FLIGHT_CAPACITY: usize = 4096;
/// Slowest spans retained by the reservoir.
pub const SLOW_CAPACITY: usize = 32;

/// What the recorder's one lock guards.
struct Spans {
    /// The most recent spans in recording order, oldest at the front.
    ring: VecDeque<SpanRecord>,
    /// The slowest spans seen so far, at most the reservoir's capacity.
    slow: Vec<SpanRecord>,
    /// The shortest duration in `slow` once it first fills, 0 before: a
    /// faster span is not offered to the reservoir.
    slow_floor: u64,
}

/// The always-on span store: a ring of the most recent spans plus a
/// slowest-K reservoir, both behind one lock.
pub struct FlightRecorder {
    spans: Mutex<Spans>,
    ring_cap: usize,
    slow_cap: usize,
}

impl FlightRecorder {
    pub fn with_capacity(ring_cap: usize, slow_cap: usize) -> FlightRecorder {
        assert!(ring_cap > 0 && slow_cap > 0);
        FlightRecorder {
            spans: Mutex::new(Spans {
                ring: VecDeque::with_capacity(ring_cap),
                slow: Vec::with_capacity(slow_cap + 1),
                slow_floor: 0,
            }),
            ring_cap,
            slow_cap,
        }
    }

    /// Every update leaves the ring and the reservoir valid, so a lock
    /// poisoned by a panicking holder still guards usable spans.
    fn lock(&self) -> MutexGuard<'_, Spans> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one completed span, evicting the oldest at capacity.
    pub fn record(&self, record: SpanRecord) {
        let mut guard = self.lock();
        let spans = &mut *guard;
        if spans.ring.len() == self.ring_cap {
            spans.ring.pop_front();
        }
        spans.ring.push_back(record);
        if record.duration_us >= spans.slow_floor {
            spans.slow.push(record);
            if spans.slow.len() > self.slow_cap {
                spans.slow.sort_unstable_by_key(|r| Reverse(r.duration_us));
                spans.slow.truncate(self.slow_cap);
                spans.slow_floor = spans.slow.last().map_or(0, |r| r.duration_us);
            }
        }
    }

    /// Snapshot of the retained spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self.lock().ring.iter().copied().collect();
        out.sort_by_key(|r| (r.start_us, r.span.0));
        out
    }

    /// The slowest spans seen so far, slowest first.
    pub fn slowest(&self) -> Vec<SpanRecord> {
        let mut slow = self.lock().slow.clone();
        slow.sort_unstable_by_key(|r| Reverse(r.duration_us));
        slow
    }
}

/// The process-global recorder every hop records into.
pub fn flight() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(|| FlightRecorder::with_capacity(FLIGHT_CAPACITY, SLOW_CAPACITY))
}

/// Records one span into the global recorder.
pub fn record_span(record: SpanRecord) {
    flight().record(record);
}

/// Recent spans from the global recorder, oldest first.
pub fn recent_spans() -> Vec<SpanRecord> {
    flight().recent()
}

/// Slowest spans from the global recorder, slowest first.
pub fn slowest_spans() -> Vec<SpanRecord> {
    flight().slowest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_hex_round_trips() {
        let id = TraceId::mint_seeded(7, 42);
        assert_ne!(id.0, 0);
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("00ff"), None, "must be exactly 16 hex chars");
        assert_eq!(TraceId::from_hex("+00000000000000f"), None, "a sign is not a hex digit");
        assert_eq!(SpanId::from_hex("+00000000000000f"), None);
    }

    #[test]
    fn minting_is_deterministic_and_collision_free_in_sequence() {
        let a: Vec<TraceId> = (0..64).map(|n| TraceId::mint_seeded(9, n)).collect();
        let b: Vec<TraceId> = (0..64).map(|n| TraceId::mint_seeded(9, n)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }

    #[test]
    fn context_wire_format_round_trips() {
        let ctx = TraceContext { trace: TraceId(0xdead_beef), span: SpanId(0x1234) };
        let wire = ctx.header_value();
        assert_eq!(wire, "00000000deadbeef-0000000000001234");
        assert_eq!(TraceContext::parse(&wire), Some(ctx));
        assert_eq!(TraceContext::parse(" 00000000deadbeef-0000000000001234 "), Some(ctx));
        assert_eq!(TraceContext::parse("deadbeef"), None);
        assert_eq!(TraceContext::parse("00000000deadbeef-zzzz000000001234"), None);
    }

    #[test]
    fn record_clips_name_and_annotation() {
        let long = "x".repeat(SPAN_NAME_MAX + 20);
        let record = SpanRecord::new(TraceId(1), SpanId(2), SpanId(0), SpanKind::Server, "t", &long)
            .with_annotation(&long);
        assert_eq!(record.name().len(), SPAN_NAME_MAX);
        assert_eq!(record.annotation().len(), SPAN_ANNOT_MAX);
        let short = SpanRecord::new(TraceId(1), SpanId(2), SpanId(0), SpanKind::Client, "t", "hi")
            .with_annotation("attempt=1");
        assert_eq!(short.name(), "hi");
        assert_eq!(short.annotation(), "attempt=1");
    }

    #[test]
    fn ring_keeps_only_the_most_recent_spans() {
        let rec = FlightRecorder::with_capacity(64, 4);
        for i in 0..200u64 {
            rec.record(
                SpanRecord::new(TraceId(i), SpanId(i + 1), SpanId(0), SpanKind::Server, "t", "r")
                    .with_timing(i, 1),
            );
        }
        // Oldest first, and exactly the last 64 of the stream survive.
        let traces: Vec<u64> = rec.recent().iter().map(|r| r.trace.0).collect();
        assert_eq!(traces, (136..200).collect::<Vec<u64>>());
    }

    #[test]
    fn slow_reservoir_retains_the_slowest() {
        let rec = FlightRecorder::with_capacity(16, 3);
        for i in 0..100u64 {
            rec.record(
                SpanRecord::new(TraceId(i), SpanId(i + 1), SpanId(0), SpanKind::Server, "t", "r")
                    .with_timing(i, i * 10),
            );
        }
        let slow = rec.slowest();
        assert_eq!(slow.len(), 3);
        let durations: Vec<u64> = slow.iter().map(|r| r.duration_us).collect();
        assert_eq!(durations, vec![990, 980, 970]);
    }

    #[test]
    fn a_poisoned_lock_still_records_and_reads() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(4, 2));
        let span = |i: u64| {
            SpanRecord::new(TraceId(i), SpanId(i), SpanId(0), SpanKind::Server, "t", "r")
                .with_timing(i, i)
        };
        rec.record(span(1));
        let holder = std::sync::Arc::clone(&rec);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.spans.lock().unwrap();
            panic!("poison the recorder's lock");
        })
        .join();
        assert!(panicked.is_err() && rec.spans.is_poisoned());
        rec.record(span(2));
        let traces: Vec<u64> = rec.recent().iter().map(|r| r.trace.0).collect();
        assert_eq!(traces, vec![1, 2]);
        assert_eq!(rec.slowest().iter().map(|r| r.duration_us).collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn concurrent_recording_never_tears() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(128, 8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let name = format!("worker-{t}");
                    rec.record(
                        SpanRecord::new(
                            TraceId(t),
                            SpanId(t * 10_000 + i),
                            SpanId(0),
                            SpanKind::Client,
                            "t",
                            &name,
                        )
                        .with_timing(i, t)
                        .with_annotation(&name),
                    );
                }
            }));
        }
        let intact = |record: &SpanRecord| {
            assert!(record.name().starts_with("worker-"), "torn name {:?}", record.name());
            assert_eq!(record.name(), record.annotation());
            assert_eq!(record.duration_us, record.trace.0);
        };
        // Concurrent readers must only ever observe intact records.
        for _ in 0..50 {
            rec.recent().iter().for_each(intact);
        }
        for handle in handles {
            handle.join().unwrap();
        }
        // 8,000 records through a 128-slot ring: no writer lost a slot.
        let recent = rec.recent();
        assert_eq!(recent.len(), 128);
        recent.iter().for_each(intact);
        let slow = rec.slowest();
        assert_eq!(slow.len(), 8);
        slow.iter().for_each(intact);
    }
}
