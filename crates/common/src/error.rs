//! Error types shared across the workspace.

use std::fmt;

use crate::ids::{Key, NodeId};

/// Result alias used throughout the workspace.
pub type HmResult<T> = Result<T, HmError>;

/// Errors surfaced by the substrates and protocols.
///
/// `Crashed` is special: it models an injected crash of a function instance
/// and is propagated up through the SSF body so the runtime can observe the
/// "failure" and re-execute — the in-process equivalent of a process dying
/// mid-function.
#[derive(Clone, PartialEq, Eq)]
pub enum HmError {
    /// The fault injector killed this function instance. Carries the
    /// instance's crash-point index for diagnostics.
    Crashed {
        /// Which crash point fired.
        point: u32,
    },
    /// The function node executing this attempt was killed (a chaos
    /// campaign's whole-node crash): every in-flight attempt on the node
    /// is torn down at the crash instant. Retried like [`HmError::Crashed`],
    /// re-dispatched to a surviving node.
    NodeCrashed {
        /// The node that went down.
        node: NodeId,
    },
    /// A read targeted an object version that does not exist in the store.
    /// Under correct protocol operation this is unreachable (Halfmoon-read
    /// commits versions to the store before exposing them in the log, §4.1);
    /// seeing it in a test means a protocol invariant broke.
    MissingVersion {
        /// The object key.
        key: Key,
    },
    /// An invoked function name was not registered with the runtime.
    UnknownFunction {
        /// The requested function name.
        name: String,
    },
    /// The simulation was asked to do something outside its configuration,
    /// e.g. invoking with a protocol the experiment did not set up.
    Config {
        /// Human-readable description.
        what: String,
    },
}

impl HmError {
    /// Convenience constructor for configuration errors.
    pub fn config(what: impl Into<String>) -> HmError {
        HmError::Config { what: what.into() }
    }

    /// True if this error is an injected crash — of the instance or of
    /// its whole node (the runtime retries these).
    #[must_use]
    pub fn is_crash(&self) -> bool {
        matches!(self, HmError::Crashed { .. } | HmError::NodeCrashed { .. })
    }
}

impl fmt::Debug for HmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for HmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HmError::Crashed { point } => write!(f, "injected crash at point {point}"),
            HmError::NodeCrashed { node } => {
                write!(f, "function node {node:?} crashed under this attempt")
            }
            HmError::MissingVersion { key } => write!(f, "missing object version for {key:?}"),
            HmError::UnknownFunction { name } => write!(f, "unknown function {name:?}"),
            HmError::Config { what } => write!(f, "configuration error: {what}"),
        }
    }
}

impl std::error::Error for HmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_detection() {
        assert!(HmError::Crashed { point: 3 }.is_crash());
        assert!(HmError::NodeCrashed { node: NodeId(2) }.is_crash());
        assert!(!HmError::config("x").is_crash());
    }

    #[test]
    fn display_is_informative() {
        let e = HmError::MissingVersion {
            key: Key::new("acct"),
        };
        let s = e.to_string();
        assert!(s.contains("missing object version"));
        assert!(s.contains("acct"));
    }
}
