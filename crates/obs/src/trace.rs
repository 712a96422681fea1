//! Leveled, structured tracing: events, `span`-style RAII timers, and a
//! pluggable sink.
//!
//! A disabled event costs one relaxed atomic load, the level check; the
//! logging macros gate message formatting behind [`enabled`]. An enabled
//! event clones the installed [`Sink`] under one lock and emits outside
//! it; with no sink installed it is dropped.
//!
//! Nothing here writes to stdout; the bundled [`StderrSink`] formats to
//! stderr, keeping report output byte-identical with tracing enabled.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::metrics::Histogram;

/// Severity levels, most severe first. The wire/CLI names are lowercase
/// (`--log-level debug`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level {other:?} (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Default verbosity: warnings and errors only, so instrumented binaries
/// stay quiet unless `--log-level` opts in.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

pub fn level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        _ => Level::Trace,
    }
}

/// Whether events at `level` are currently recorded.
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// The process-wide monotonic epoch every event timestamp is relative to.
/// Shared with the flight recorder so span and event timelines line up.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One structured trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic time since the first use of the tracing facility.
    pub elapsed: Duration,
    pub level: Level,
    /// Static subsystem tag (`"http"`, `"crawler"`, `"report"`, ...).
    pub target: &'static str,
    pub message: String,
}

/// Where enabled events go.
pub trait Sink: Send + Sync {
    fn emit(&self, event: &Event);
}

/// The bundled text formatter: one line per event on stderr,
/// `[  12.3456s LEVEL target] message`.
pub struct StderrSink;

impl Sink for StderrSink {
    fn emit(&self, event: &Event) {
        use std::io::Write;
        // Never `eprintln!` here: it panics on EPIPE, and a supervisor
        // that closes our stderr (after reading the startup banner, say)
        // must lose log lines, not serving threads.
        let stderr = std::io::stderr();
        let _ = writeln!(
            stderr.lock(),
            "[{:>9.4}s {:<5} {}] {}",
            event.elapsed.as_secs_f64(),
            event.level.as_str(),
            event.target,
            event.message
        );
    }
}

/// The installed sink. Every write stores a whole `Option`, so a lock
/// poisoned by a panicking holder still guards a valid value.
static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);

/// Installs (or replaces) the global sink.
pub fn set_sink(sink: Arc<dyn Sink>) {
    *SINK.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
}

/// Records one event (if `level` is enabled): forwarded to the sink, if one
/// is installed. Prefer the macros (`obs_info!` etc.), which skip message
/// formatting when disabled.
pub fn event(level: Level, target: &'static str, message: String) {
    if !enabled(level) {
        return;
    }
    let event = Event { elapsed: epoch().elapsed(), level, target, message };
    // Emit outside the lock, so a sink that itself logs cannot deadlock.
    let sink = SINK.lock().unwrap_or_else(PoisonError::into_inner).clone();
    if let Some(sink) = sink {
        sink.emit(&event);
    }
}

/// An RAII span timer: emits a `Debug` event `name took 12.3ms` on drop
/// and, optionally, records the duration into a [`Histogram`].
pub struct SpanTimer {
    target: &'static str,
    name: String,
    start: Instant,
    histogram: Option<Arc<Histogram>>,
}

/// Starts a span.
pub fn span(target: &'static str, name: impl Into<String>) -> SpanTimer {
    SpanTimer { target, name: name.into(), start: Instant::now(), histogram: None }
}

impl SpanTimer {
    /// Also record the span duration into `histogram` on drop. The
    /// recording is unconditional — metrics are never gated by log level.
    pub fn with_histogram(mut self, histogram: Arc<Histogram>) -> Self {
        self.histogram = Some(histogram);
        self
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        if let Some(h) = &self.histogram {
            h.record_duration(elapsed);
        }
        if enabled(Level::Debug) {
            event(Level::Debug, self.target, format!("{} took {:.3?}", self.name, elapsed));
        }
    }
}

/// Records an event at an explicit level, formatting lazily.
#[macro_export]
macro_rules! obs_event {
    ($level:expr, $target:expr, $($arg:tt)*) => {
        if $crate::trace::enabled($level) {
            $crate::trace::event($level, $target, format!($($arg)*));
        }
    };
}

#[macro_export]
macro_rules! obs_error {
    ($target:expr, $($arg:tt)*) => { $crate::obs_event!($crate::trace::Level::Error, $target, $($arg)*) };
}

#[macro_export]
macro_rules! obs_warn {
    ($target:expr, $($arg:tt)*) => { $crate::obs_event!($crate::trace::Level::Warn, $target, $($arg)*) };
}

#[macro_export]
macro_rules! obs_info {
    ($target:expr, $($arg:tt)*) => { $crate::obs_event!($crate::trace::Level::Info, $target, $($arg)*) };
}

#[macro_export]
macro_rules! obs_debug {
    ($target:expr, $($arg:tt)*) => { $crate::obs_event!($crate::trace::Level::Debug, $target, $($arg)*) };
}

#[macro_export]
macro_rules! obs_trace {
    ($target:expr, $($arg:tt)*) => { $crate::obs_event!($crate::trace::Level::Trace, $target, $($arg)*) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Tests below mutate the global level; serialize them so the parallel
    /// test harness cannot interleave their level changes.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn level_parsing_and_order() {
        assert_eq!("debug".parse::<Level>().unwrap(), Level::Debug);
        assert_eq!("WARN".parse::<Level>().unwrap(), Level::Warn);
        assert!("loud".parse::<Level>().is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn span_records_into_histogram_even_when_disabled() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        set_level(Level::Error);
        let h = Arc::new(Histogram::new());
        {
            let _span = span("test-span", "work").with_histogram(Arc::clone(&h));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000, "recorded {}µs", h.sum());
        set_level(Level::Warn);
    }

    /// Counts the events of one target that reach it.
    struct CountingSink {
        target: &'static str,
        hits: AtomicU64,
    }

    impl CountingSink {
        fn new(target: &'static str) -> Arc<CountingSink> {
            Arc::new(CountingSink { target, hits: AtomicU64::new(0) })
        }
    }

    impl Sink for CountingSink {
        fn emit(&self, event: &Event) {
            if event.target == self.target {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn disabled_events_are_dropped() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        set_level(Level::Warn);
        let sink = CountingSink::new("test-disabled");
        set_sink(Arc::clone(&sink) as Arc<dyn Sink>);
        event(Level::Debug, "test-disabled", "invisible".into());
        assert_eq!(sink.hits.load(Ordering::Relaxed), 0, "a disabled event reached the sink");
        event(Level::Warn, "test-disabled", "visible".into());
        assert_eq!(sink.hits.load(Ordering::Relaxed), 1, "an enabled event missed the sink");
    }

    #[test]
    fn concurrent_emit_with_sink_swap_loses_nothing() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        set_level(Level::Warn);
        let first = CountingSink::new("test-sink-swap");
        let second = CountingSink::new("test-sink-swap");
        set_sink(Arc::clone(&first) as Arc<dyn Sink>);

        const THREADS: u64 = 4;
        const EVENTS: u64 = 500;
        let emitters: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..EVENTS {
                        event(Level::Warn, "test-sink-swap", format!("{t}-{i}"));
                    }
                })
            })
            .collect();
        // Swap mid-stream: cached clones may deliver a few more events to
        // the old sink, but every event lands in exactly one of the two.
        set_sink(Arc::clone(&second) as Arc<dyn Sink>);
        for emitter in emitters {
            emitter.join().unwrap();
        }
        // Post-swap events from this thread must reach the new sink.
        let already = second.hits.load(Ordering::Relaxed);
        for i in 0..10 {
            event(Level::Warn, "test-sink-swap", format!("main-{i}"));
        }
        assert_eq!(second.hits.load(Ordering::Relaxed), already + 10);
        assert_eq!(
            first.hits.load(Ordering::Relaxed) + second.hits.load(Ordering::Relaxed),
            THREADS * EVENTS + 10,
            "an event was dropped or double-emitted across the sink swap"
        );
    }
}
