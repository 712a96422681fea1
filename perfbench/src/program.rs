//! The benchmark's side of the program's public surface: a timing wrapper
//! around `Handler::handle`, and readers for the counters the program's
//! registry already exports.

use std::sync::Arc;
use std::time::Instant;

use steam_net::http::{Request, Response};
use steam_net::{Handler, HttpServer, ServerConfig};
use steam_obs::{Registry, TraceContext, TRACE_HEADER};

use crate::spans::Recorder;

/// Which half of `X-Steam-Trace` identifies a request.
#[derive(Clone, Copy)]
pub enum ReqKey {
    /// The trace id: one per routed request, shared by its shard hops.
    Trace,
    /// The caller's span id: one per crawler attempt, matching the
    /// crawler's own client span.
    Span,
}

/// Records one span per call into the wrapped handler.
pub struct Timed {
    inner: Arc<dyn Handler>,
    name: &'static str,
    parent: &'static str,
    key: ReqKey,
    rec: Arc<Recorder>,
}

impl Timed {
    /// `inner`, with each call recorded as a span when a recorder is given.
    pub fn wrap(
        inner: Arc<dyn Handler>,
        rec: Option<&Arc<Recorder>>,
        name: &'static str,
        parent: &'static str,
        key: ReqKey,
    ) -> Arc<dyn Handler> {
        match rec {
            None => inner,
            Some(rec) => Arc::new(Timed {
                inner,
                name,
                parent,
                key,
                rec: Arc::clone(rec),
            }),
        }
    }
}

/// Binds `handler` on a free local port the way the program's
/// `serve_*_config` functions do: default server settings and the
/// registry the caller has attached to the service.
pub fn bind(handler: Arc<dyn Handler>, registry: &Arc<Registry>) -> Result<HttpServer, String> {
    HttpServer::bind_config(
        "127.0.0.1:0",
        ServerConfig::default(),
        handler,
        Some(Arc::clone(registry)),
        None,
    )
    .map_err(|e| e.to_string())
}

impl Handler for Timed {
    fn handle(&self, req: Request) -> Response {
        let ctx = req.header(TRACE_HEADER).and_then(TraceContext::parse);
        let start = Instant::now();
        let resp = self.inner.handle(req);
        let end = Instant::now();
        let id = ctx.map_or(0, |c| match self.key {
            ReqKey::Trace => c.trace.0,
            ReqKey::Span => c.span.0,
        });
        self.rec
            .record(self.name, id, Some(self.parent), start, end);
        resp
    }
}

/// Sum of every series of metric `name` in the registry's exposition whose
/// label set contains `label` (all series when `label` is empty).
pub fn series_sum(registry: &Registry, name: &str, label: &str) -> f64 {
    sum_exposition(&registry.render_prometheus(), name, label)
}

pub fn sum_exposition(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (metric, labels) = series.split_once('{').unwrap_or((series, ""));
            (metric == name && labels.contains(label)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Reactor figures of one server's registry: loop-iteration p99 (µs),
/// total epoll-wait time (s), events per wake, accepts.
pub fn reactor(registry: &Registry) -> [f64; 4] {
    let iter = registry.histogram("reactor_loop_iteration_duration_seconds", &[]);
    let wait = registry.histogram("reactor_epoll_wait_duration_seconds", &[]);
    [
        iter.quantile(0.99),
        wait.sum() as f64 / 1e6,
        registry.gauge("reactor_events_per_wake", &[]).get() as f64,
        registry.counter("reactor_accepts_total", &[]).get() as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_series_by_name_and_label() {
        let text = "# HELP x y\n\
                    http_requests_total{endpoint=\"/a\",status=\"200\"} 5\n\
                    http_requests_total{endpoint=\"/b\",status=\"429\"} 2\n\
                    http_requests_total_x 100\n\
                    api_cache_entries 7\n";
        assert_eq!(sum_exposition(text, "http_requests_total", ""), 7.0);
        assert_eq!(
            sum_exposition(text, "http_requests_total", "status=\"429\""),
            2.0
        );
        assert_eq!(sum_exposition(text, "api_cache_entries", ""), 7.0);
        assert_eq!(sum_exposition(text, "missing", ""), 0.0);
    }
}
