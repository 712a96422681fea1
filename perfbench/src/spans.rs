//! The benchmark's own spans: recorded around calls into the program's
//! public handlers and functions, kept in memory, written out at the end.
//!
//! A span's parent is named, not numbered: the wrappers that record spans
//! sit in different servers (and processes), so a child finds its parent as
//! the span with the parent's name and the same request id.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    /// Request id: the trace id carried in `X-Steam-Trace`, or the client
    /// span id where a trace spans several attempts.
    pub req: u64,
    pub parent: Option<String>,
    /// Microseconds since the recording process's epoch.
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover. Children may overlap each other (a fan-out), so the
/// covered part is the union of their intervals, clipped to the parent.
pub fn self_time_us(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_us.max(parent.start_us), c.end_us.min(parent.end_us)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.dur_us() - covered
}

/// Self time of every span named `parent`, against its children (spans
/// whose parent is `parent`, with the same request id).
pub fn self_times(spans: &[Span], parent: &str) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent.as_deref() == Some(parent)) {
        children.entry(s.req).or_default().push(s);
    }
    spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|p| self_time_us(p, children.get(&p.req).map_or(&[][..], |v| v.as_slice())))
        .collect()
}

/// In-memory span store shared by the wrappers of one process.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    pub fn record(&self, name: &str, req: u64, parent: Option<&str>, start: Instant, end: Instant) {
        let span = Span {
            name: name.to_string(),
            req,
            parent: parent.map(str::to_string),
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Writes spans as tab-separated `name req parent start_us end_us` lines.
pub fn write_tsv(mut out: impl Write, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name,
            s.req,
            s.parent.as_deref().unwrap_or("-"),
            s.start_us,
            s.end_us
        )?;
    }
    out.flush()
}

pub fn read_tsv(input: impl BufRead) -> std::io::Result<Vec<Span>> {
    let bad = |line: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, line.to_string());
    let mut spans = Vec::new();
    for line in input.lines() {
        let line = line?;
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 5 {
            return Err(bad(&line));
        }
        let n = |i: usize| f[i].parse::<u64>().map_err(|_| bad(&line));
        spans.push(Span {
            name: f[0].to_string(),
            req: n(1)?,
            parent: (f[2] != "-").then(|| f[2].to_string()),
            start_us: n(3)?,
            end_us: n(4)?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, req: u64, parent: Option<&str>, start_us: u64, end_us: u64) -> Span {
        Span {
            name: name.into(),
            req,
            parent: parent.map(Into::into),
            start_us,
            end_us,
        }
    }

    #[test]
    fn overlapping_children_count_once() {
        // A fan-out: two shard spans overlap inside the router span.
        let router = span("router", 1, None, 100, 200);
        let a = span("shard", 1, Some("router"), 110, 160);
        let b = span("shard", 1, Some("router"), 120, 180);
        assert_eq!(self_time_us(&router, &[&a, &b]), 100 - 70);
        // The union, not the slowest child, when children are disjoint.
        let c = span("shard", 1, Some("router"), 185, 195);
        assert_eq!(self_time_us(&router, &[&a, &b, &c]), 100 - 80);
        // Nested and identical children add nothing.
        let inner = span("shard", 1, Some("router"), 130, 140);
        assert_eq!(
            self_time_us(&router, &[&a, &b, &inner, &b.clone()]),
            100 - 70
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let p = span("router", 1, None, 100, 200);
        let early = span("shard", 1, Some("router"), 50, 120);
        let late = span("shard", 1, Some("router"), 190, 400);
        let outside = span("shard", 1, Some("router"), 300, 400);
        assert_eq!(self_time_us(&p, &[&early, &late, &outside]), 100 - 30);
        assert_eq!(self_time_us(&p, &[]), 100);
    }

    #[test]
    fn self_times_join_children_by_request() {
        let spans = vec![
            span("router", 1, None, 0, 100),
            span("router", 2, None, 0, 50),
            span("shard", 1, Some("router"), 10, 60),
            span("shard", 2, Some("router"), 0, 50),
            span("shard", 3, Some("router"), 0, 50),
        ];
        assert_eq!(self_times(&spans, "router"), vec![50, 0]);
    }

    #[test]
    fn tsv_round_trip() {
        let spans = vec![
            span("router", 7, None, 1, 9),
            span("shard", 7, Some("router"), 2, 8),
        ];
        let mut buf = Vec::new();
        write_tsv(&mut buf, &spans).unwrap();
        assert_eq!(read_tsv(&buf[..]).unwrap(), spans);
        assert!(read_tsv(&b"router\t1\n"[..]).is_err());
    }
}
