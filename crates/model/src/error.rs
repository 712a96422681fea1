//! Error type for the model crate.

use std::fmt;

/// Errors produced while constructing or decoding model data.
#[derive(Debug)]
pub enum ModelError {
    /// A raw 64-bit value below the Steam ID base.
    InvalidSteamId(u64),
    /// A textual Steam ID that does not parse.
    ParseSteam2(String),
    /// The snapshot codec met a malformed or truncated buffer.
    Codec(String),
    /// A checkpoint journal's framing or one of its records does not decode.
    Journal(String),
    /// Underlying I/O failure while reading or writing a snapshot.
    Io(std::io::Error),
    /// A snapshot referenced an entity that does not exist (dangling edge,
    /// ownership of an unknown app, membership in an unknown group, ...).
    DanglingReference(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidSteamId(raw) => {
                write!(f, "steam id {raw} is below the individual-account base")
            }
            ModelError::ParseSteam2(s) => write!(f, "cannot parse steam id from {s:?}"),
            ModelError::Codec(msg) => write!(f, "snapshot codec error: {msg}"),
            ModelError::Journal(msg) => write!(f, "checkpoint journal error: {msg}"),
            ModelError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            ModelError::DanglingReference(msg) => write!(f, "dangling reference: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::InvalidSteamId(42);
        assert!(e.to_string().contains("42"));
        let e = ModelError::Codec("truncated".into());
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: ModelError = io.into();
        assert!(e.source().is_some());
    }
}
