//! Retry with exponential backoff — the crawler's response to 429s from the
//! rate-limited API (the paper's phase-2 crawl ran for months under exactly
//! this regime).

use std::time::Duration;

use crate::error::NetError;

/// Backoff policy: `base · 2^attempt`, capped at `max`.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    pub base: Duration,
    pub max: Duration,
    pub attempts: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(50),
            max: Duration::from_secs(5),
            attempts: 6,
        }
    }
}

impl Backoff {
    /// Delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(20);
        // A large base (e.g. minutes) times 2^20 overflows Duration's
        // arithmetic, which panics; saturate and let `max` cap it.
        self.base.saturating_mul(factor).min(self.max)
    }

    /// Runs `op` until it succeeds or the policy is exhausted, sleeping
    /// between attempts. `retryable` decides which errors warrant a retry
    /// (e.g. 429/5xx yes, 404 no). Two more rules, for observability and
    /// politeness:
    ///
    /// * `on_retry(error, delay)` fires once per retryable failure, with
    ///   the delay about to be slept (`Duration::ZERO` on the final,
    ///   unslept attempt) — the crawler's retry-by-cause and wait-time
    ///   metrics hang off this;
    /// * a non-zero server-sent `Retry-After` hint on the error overrides
    ///   the computed exponential delay (capped at `max`, like every
    ///   delay). A zero hint ("retry now") counts as no hint: the computed
    ///   delay still spaces the retries.
    ///
    /// At least one attempt is made, even with `attempts` of 0, so a
    /// [`NetError::RetriesExhausted`] always carries a real last error.
    pub fn run_observed<T>(
        &self,
        mut op: impl FnMut() -> Result<T, NetError>,
        retryable: impl Fn(&NetError) -> bool,
        mut on_retry: impl FnMut(&NetError, Duration),
    ) -> Result<T, NetError> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            let e = match op() {
                Ok(v) => return Ok(v),
                Err(e) if retryable(&e) => e,
                Err(e) => return Err(e),
            };
            attempt += 1;
            if attempt == attempts {
                on_retry(&e, Duration::ZERO);
                let last = Box::new(e);
                return Err(NetError::RetriesExhausted { attempts, last });
            }
            let delay = match e.retry_after() {
                Some(hint) if !hint.is_zero() => hint.min(self.max),
                _ => self.delay(attempt - 1),
            };
            on_retry(&e, delay);
            std::thread::sleep(delay);
        }
    }
}

/// Standard retryability: 429 and 5xx statuses, plus raw I/O failures.
pub fn transient(err: &NetError) -> bool {
    match err {
        NetError::Status { code, .. } => *code == 429 || *code >= 500,
        NetError::Io(_) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast() -> Backoff {
        Backoff {
            base: Duration::from_millis(1),
            max: Duration::from_millis(4),
            attempts: 4,
        }
    }

    #[test]
    fn delays_double_and_cap() {
        let b = fast();
        assert_eq!(b.delay(0), Duration::from_millis(1));
        assert_eq!(b.delay(1), Duration::from_millis(2));
        assert_eq!(b.delay(2), Duration::from_millis(4));
        assert_eq!(b.delay(3), Duration::from_millis(4)); // capped
        assert_eq!(b.delay(30), Duration::from_millis(4)); // shift clamp
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let calls = AtomicU32::new(0);
        let result = fast().run_observed(
            || {
                if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err(NetError::status(429, "slow"))
                } else {
                    Ok(7)
                }
            },
            transient,
            |_, _| {},
        );
        assert_eq!(result.unwrap(), 7);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let calls = AtomicU32::new(0);
        let result: Result<(), _> = fast().run_observed(
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(NetError::status(500, "boom"))
            },
            transient,
            |_, _| {},
        );
        match result {
            Err(NetError::RetriesExhausted { attempts: 4, last }) => {
                assert!(
                    matches!(*last, NetError::Status { code: 500, .. }),
                    "{last}"
                );
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn zero_attempts_still_make_one() {
        let calls = AtomicU32::new(0);
        let b = Backoff {
            attempts: 0,
            ..fast()
        };
        let result: Result<(), _> = b.run_observed(
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(NetError::status(503, "busy"))
            },
            transient,
            |_, _| {},
        );
        let err = result.unwrap_err();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(
            err.to_string(),
            "gave up after 1 attempts; last error: http status 503: busy"
        );
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let calls = AtomicU32::new(0);
        let result: Result<(), _> = fast().run_observed(
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(NetError::status(404, "missing"))
            },
            transient,
            |_, _| {},
        );
        assert!(matches!(result, Err(NetError::Status { code: 404, .. })));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn huge_base_saturates_instead_of_panicking() {
        let b = Backoff {
            base: Duration::MAX,
            max: Duration::from_secs(60),
            attempts: 3,
        };
        // Duration::MAX * 2^20 would panic with plain multiplication.
        assert_eq!(b.delay(20), Duration::from_secs(60));
    }

    #[test]
    fn retry_after_hint_overrides_exponential_delay() {
        let b = Backoff {
            base: Duration::from_millis(64),
            max: Duration::from_millis(100),
            attempts: 3,
        };
        let mut delays = Vec::new();
        let calls = AtomicU32::new(0);
        let result = b.run_observed(
            || {
                if calls.fetch_add(1, Ordering::Relaxed) < 1 {
                    Err(NetError::Status {
                        code: 429,
                        body: "slow".into(),
                        retry_after: Some(Duration::from_millis(7)),
                    })
                } else {
                    Ok(())
                }
            },
            transient,
            |err, delay| delays.push((err.retry_after(), delay)),
        );
        result.unwrap();
        // The hinted 7ms wins over the computed 64ms first delay.
        assert_eq!(
            delays,
            vec![(Some(Duration::from_millis(7)), Duration::from_millis(7))]
        );
    }

    #[test]
    fn retry_after_hint_is_capped_at_max() {
        let b = fast(); // max = 4ms
        let mut observed = Duration::ZERO;
        let calls = AtomicU32::new(0);
        b.run_observed(
            || {
                if calls.fetch_add(1, Ordering::Relaxed) < 1 {
                    Err(NetError::Status {
                        code: 429,
                        body: "slow".into(),
                        retry_after: Some(Duration::from_secs(3600)),
                    })
                } else {
                    Ok(())
                }
            },
            transient,
            |_, delay| observed = delay,
        )
        .unwrap();
        assert_eq!(observed, Duration::from_millis(4));
    }

    #[test]
    fn zero_retry_after_hint_sleeps_the_computed_delay() {
        // A server whose next token is under a second away answers
        // `Retry-After: 0`; the retry must still wait its own schedule.
        let b = fast();
        let mut delays = Vec::new();
        let calls = AtomicU32::new(0);
        b.run_observed(
            || {
                if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err(NetError::Status {
                        code: 429,
                        body: "slow".into(),
                        retry_after: Some(Duration::ZERO),
                    })
                } else {
                    Ok(())
                }
            },
            transient,
            |_, delay| delays.push(delay),
        )
        .unwrap();
        assert_eq!(delays, vec![b.delay(0), b.delay(1)]);
    }

    #[test]
    fn observer_fires_per_retry_with_zero_delay_on_final_attempt() {
        let mut delays = Vec::new();
        let result: Result<(), _> = fast().run_observed(
            || Err(NetError::status(500, "boom")),
            transient,
            |_, delay| delays.push(delay),
        );
        assert!(matches!(result, Err(NetError::RetriesExhausted { .. })));
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(4),
                Duration::ZERO, // final attempt: nothing left to wait for
            ]
        );
    }

    #[test]
    fn transient_classification() {
        assert!(transient(&NetError::status(429, "")));
        assert!(transient(&NetError::status(503, "")));
        assert!(!transient(&NetError::status(404, "")));
        assert!(transient(&NetError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "reset"
        ))));
        assert!(!transient(&NetError::Http("bad".into())));
    }
}
