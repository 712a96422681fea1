//! Error type shared by the networking substrate.

use std::fmt;
use std::time::Duration;

/// Errors from the JSON codec, HTTP framing, client, or server.
#[derive(Debug)]
pub enum NetError {
    /// Malformed JSON text.
    Json { offset: usize, message: String },
    /// Malformed HTTP framing (request line, headers, lengths).
    Http(String),
    /// Underlying socket/stream failure.
    Io(std::io::Error),
    /// The server answered with a non-success status. `retry_after` carries
    /// the parsed `Retry-After` header, when the server sent one (429s from
    /// the emulated API do) — the backoff path prefers it over the computed
    /// exponential delay.
    Status {
        code: u16,
        body: String,
        retry_after: Option<Duration>,
    },
    /// A retryable operation exhausted its attempts; `last` is the final
    /// attempt's error.
    RetriesExhausted { attempts: u32, last: Box<NetError> },
}

impl NetError {
    /// A status error without a `Retry-After` hint.
    pub fn status(code: u16, body: impl Into<String>) -> NetError {
        NetError::Status {
            code,
            body: body.into(),
            retry_after: None,
        }
    }

    /// The server's `Retry-After` hint, if this is a status error carrying
    /// one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            NetError::Status { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Json { offset, message } => {
                write!(f, "json error at byte {offset}: {message}")
            }
            NetError::Http(msg) => write!(f, "http error: {msg}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Status { code, body, .. } => {
                write!(f, "http status {code}: {}", truncate(body, 200))
            }
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(NetError::Json {
            offset: 3,
            message: "bad".into()
        }
        .to_string()
        .contains("byte 3"));
        assert!(NetError::status(429, "slow down")
            .to_string()
            .contains("429"));
        let long = "x".repeat(500);
        let msg = NetError::status(500, long).to_string();
        assert!(msg.len() < 300);
    }

    #[test]
    fn retry_after_accessor() {
        use std::time::Duration;
        assert_eq!(NetError::status(429, "slow").retry_after(), None);
        let hinted = NetError::Status {
            code: 429,
            body: "slow".into(),
            retry_after: Some(Duration::from_secs(3)),
        };
        assert_eq!(hinted.retry_after(), Some(Duration::from_secs(3)));
        assert_eq!(NetError::Http("x".into()).retry_after(), None);
    }
}
