//! Deterministic fault injection for the emulated Steam API.
//!
//! The paper's crawl ran for months against a flaky, rate-limited service;
//! proving the crawler survives that regime needs a server that misbehaves on
//! purpose, reproducibly. A [`FaultPlan`] describes *how* to misbehave
//! (per-endpoint probabilities of dropped connections, 5xx responses,
//! truncated or corrupted bodies, stalls) and a [`FaultInjector`] turns the
//! plan into per-request decisions driven by a seeded counter hash — the
//! same seed and request ordering always produce the same fault sequence,
//! and there is no shared RNG lock on the hot path.
//!
//! ## Plan grammar
//!
//! A plan is a `;`-separated list of entries:
//!
//! ```text
//! drop=0.05,500=0.02;/ISteamUser:corrupt=0.1;stall-ms=40
//! ```
//!
//! - `kind=prob[,kind=prob...]` — a rule matching every endpoint.
//! - `/prefix:kind=prob[,...]` — a rule matching paths starting with
//!   `/prefix`. The **first** matching rule wins, so put specific prefixes
//!   before catch-alls.
//! - `stall-ms=N` — how long a `stall` fault sleeps (default 25 ms).
//!
//! Kinds: `drop` (close the connection without answering), `500`, `503`,
//! `truncate` (full `Content-Length`, half the body, close), `corrupt`
//! (garble the JSON body), `stall` (sleep, then answer normally).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use steam_obs::{splitmix64, Counter, Registry};

use crate::error::NetError;

/// One way the server can misbehave on a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Close the connection without writing any response.
    Drop,
    /// Answer `500 Internal Server Error`.
    Status500,
    /// Answer `503 Service Unavailable`.
    Status503,
    /// Write the full headers (real `Content-Length`) but only half the
    /// body, then close — the client sees an unexpected EOF mid-body.
    Truncate,
    /// Serve the real response with its JSON body garbled.
    Corrupt,
    /// Sleep for the plan's `stall-ms`, then answer normally.
    Stall,
}

impl FaultKind {
    /// All kinds, in metric/label order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Status500,
        FaultKind::Status503,
        FaultKind::Truncate,
        FaultKind::Corrupt,
        FaultKind::Stall,
    ];

    /// Stable label, used both in plan specs and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Status500 => "500",
            FaultKind::Status503 => "503",
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Stall => "stall",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Fault probabilities for one endpoint-prefix match.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Path prefix this rule applies to; empty matches everything.
    pub prefix: String,
    /// `(kind, probability)` pairs; probabilities must sum to ≤ 1.
    pub probs: Vec<(FaultKind, f64)>,
}

impl FaultRule {
    fn matches(&self, path: &str) -> bool {
        path.starts_with(&self.prefix)
    }
}

/// A parsed, seeded fault plan. See the module docs for the spec grammar.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    pub seed: u64,
    /// First matching rule wins.
    pub rules: Vec<FaultRule>,
    /// Sleep duration for [`FaultKind::Stall`].
    pub stall: Duration,
}

impl FaultPlan {
    /// Parses a plan spec like `drop=0.05;/ISteamUser:corrupt=0.1;stall-ms=40`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, NetError> {
        let bad = |msg: String| NetError::Http(format!("bad fault spec: {msg}"));
        let mut rules = Vec::new();
        let mut stall = Duration::from_millis(25);
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some(ms) = entry.strip_prefix("stall-ms=") {
                stall = Duration::from_millis(
                    ms.parse().map_err(|_| bad(format!("stall-ms value {ms:?}")))?,
                );
                continue;
            }
            // `/prefix:kind=p,...` or bare `kind=p,...`.
            let (prefix, probs_spec) = match entry.strip_prefix('/') {
                Some(rest) => {
                    let (p, probs) = rest
                        .split_once(':')
                        .ok_or_else(|| bad(format!("missing ':' after prefix in {entry:?}")))?;
                    (format!("/{p}"), probs)
                }
                None => (String::new(), entry),
            };
            let mut probs = Vec::new();
            let mut total = 0.0f64;
            for pair in probs_spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let (kind, prob) = pair
                    .split_once('=')
                    .ok_or_else(|| bad(format!("expected kind=prob, got {pair:?}")))?;
                let kind = FaultKind::parse(kind.trim())
                    .ok_or_else(|| bad(format!("unknown fault kind {kind:?}")))?;
                let prob: f64 =
                    prob.trim().parse().map_err(|_| bad(format!("probability {prob:?}")))?;
                if !(0.0..=1.0).contains(&prob) {
                    return Err(bad(format!("probability {prob} outside [0, 1]")));
                }
                total += prob;
                probs.push((kind, prob));
            }
            if probs.is_empty() {
                return Err(bad(format!("empty rule {entry:?}")));
            }
            if total > 1.0 + 1e-9 {
                return Err(bad(format!("probabilities in {entry:?} sum to {total} > 1")));
            }
            rules.push(FaultRule { prefix, probs });
        }
        if rules.is_empty() {
            return Err(bad("no fault rules".into()));
        }
        Ok(FaultPlan { seed, rules, stall })
    }
}

/// Turns a [`FaultPlan`] into per-request decisions.
///
/// Each candidate request draws the next value of a global counter; the
/// decision is a pure function of `(seed, counter)`, so a given server
/// lifetime replays the same fault sequence for the same request order. The
/// counter deliberately survives across crawls against one server: a
/// resumed crawl sees *later* fault points, not the same ones again.
pub struct FaultInjector {
    plan: FaultPlan,
    n: AtomicU64,
    /// Per-kind injected counters (`crawl_faults_injected_total{kind}`),
    /// present when built with a registry.
    injected: Vec<(FaultKind, Arc<Counter>)>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, registry: Option<&Registry>) -> FaultInjector {
        let injected = registry
            .map(|r| {
                r.describe(
                    "crawl_faults_injected_total",
                    "Faults injected by the emulated API, by kind",
                );
                FaultKind::ALL
                    .into_iter()
                    .map(|k| (k, r.counter("crawl_faults_injected_total", &[("kind", k.label())])))
                    .collect()
            })
            .unwrap_or_default();
        FaultInjector { plan, n: AtomicU64::new(0), injected }
    }

    /// Decides the fate of one request. `None` means serve it normally.
    pub fn decide(&self, path: &str) -> Option<FaultKind> {
        let rule = self.plan.rules.iter().find(|r| r.matches(path))?;
        let n = self.n.fetch_add(1, Ordering::Relaxed);
        let draw = (splitmix64(self.plan.seed ^ splitmix64(n)) >> 11) as f64
            / (1u64 << 53) as f64;
        let mut acc = 0.0;
        for &(kind, prob) in &rule.probs {
            acc += prob;
            if draw < acc {
                if let Some((_, c)) = self.injected.iter().find(|(k, _)| *k == kind) {
                    c.inc();
                }
                return Some(kind);
            }
        }
        None
    }

    /// How long a [`FaultKind::Stall`] sleeps.
    pub fn stall_duration(&self) -> Duration {
        self.plan.stall
    }

    /// Total faults injected so far (0 without a registry).
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|(_, c)| c.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse(
            "/ISteamUser:corrupt=0.2,drop=0.1; 500=0.05,503=0.05 ; stall-ms=40",
            7,
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].prefix, "/ISteamUser");
        assert_eq!(plan.rules[0].probs, vec![(FaultKind::Corrupt, 0.2), (FaultKind::Drop, 0.1)]);
        assert_eq!(plan.rules[1].prefix, "");
        assert_eq!(plan.stall, Duration::from_millis(40));
    }

    #[test]
    fn rejects_bad_specs() {
        for spec in [
            "",
            "stall-ms=40",          // no rules
            "explode=0.5",          // unknown kind
            "drop=1.5",             // out of range
            "drop=banana",          // not a number
            "drop=0.8,500=0.9",     // sums past 1
            "/ISteamUser;drop=0.1", // prefix without ':'
            "drop",                 // no '='
        ] {
            assert!(FaultPlan::parse(spec, 0).is_err(), "accepted {spec:?}");
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan =
            FaultPlan::parse("/ISteamUser:drop=1.0;corrupt=1.0", 1).unwrap();
        let inj = FaultInjector::new(plan, None);
        assert_eq!(inj.decide("/ISteamUser/GetFriendList/v1"), Some(FaultKind::Drop));
        assert_eq!(inj.decide("/ISteamApps/GetAppList/v2"), Some(FaultKind::Corrupt));
    }

    #[test]
    fn probability_extremes() {
        let always = FaultInjector::new(FaultPlan::parse("drop=1.0", 3).unwrap(), None);
        let never = FaultInjector::new(FaultPlan::parse("drop=0.0", 3).unwrap(), None);
        for _ in 0..100 {
            assert_eq!(always.decide("/x"), Some(FaultKind::Drop));
            assert_eq!(never.decide("/x"), None);
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let plan = FaultPlan::parse("drop=0.3,500=0.3", 42).unwrap();
        let a = FaultInjector::new(plan.clone(), None);
        let b = FaultInjector::new(plan, None);
        let seq_a: Vec<_> = (0..200).map(|_| a.decide("/x")).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.decide("/x")).collect();
        assert_eq!(seq_a, seq_b);
        // A mid-probability plan actually mixes outcomes.
        assert!(seq_a.iter().any(|f| f.is_some()));
        assert!(seq_a.iter().any(|f| f.is_none()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultPlan::parse("drop=0.5", 1).unwrap(), None);
        let b = FaultInjector::new(FaultPlan::parse("drop=0.5", 2).unwrap(), None);
        let seq_a: Vec<_> = (0..200).map(|_| a.decide("/x")).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.decide("/x")).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn injected_counters_track_by_kind() {
        let registry = Registry::new();
        let inj =
            FaultInjector::new(FaultPlan::parse("503=1.0", 5).unwrap(), Some(&registry));
        for _ in 0..7 {
            inj.decide("/x");
        }
        assert_eq!(inj.injected_total(), 7);
        let text = registry.render_prometheus();
        assert!(
            text.contains("crawl_faults_injected_total{kind=\"503\"} 7"),
            "{text}"
        );
    }
}
