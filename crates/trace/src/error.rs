//! Error type for invalid trace construction.

use std::error::Error;
use std::fmt;

use crate::ids::{MessageId, ProcessId};

/// An error raised while constructing or transforming an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A step referenced a process outside `p_1 … p_n`.
    UnknownProcess {
        /// The offending process identifier.
        process: ProcessId,
        /// The system size.
        n: usize,
    },
    /// A step referenced a message that was never registered.
    UnknownMessage(MessageId),
    /// A message identifier was registered twice (messages are unique).
    DuplicateMessage(MessageId),
    /// A renaming was not injective or collided with an existing message.
    InvalidRenaming(MessageId),
    /// The execution's system has no process (`n = 0`); the model has at
    /// least one.
    NoProcesses,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnknownProcess { process, n } => {
                write!(f, "{process} is outside the system p1..p{n}")
            }
            TraceError::UnknownMessage(m) => write!(f, "message {m} was never registered"),
            TraceError::DuplicateMessage(m) => {
                write!(f, "message {m} registered twice (messages are unique)")
            }
            TraceError::InvalidRenaming(m) => {
                write!(f, "renaming is not injective at message {m}")
            }
            TraceError::NoProcesses => f.write_str("an execution needs at least one process"),
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = TraceError::UnknownMessage(MessageId::new(3));
        assert_eq!(e.to_string(), "message m3 was never registered");
        let e = TraceError::UnknownProcess {
            process: ProcessId::new(9),
            n: 4,
        };
        assert!(e.to_string().contains("p9"));
        assert!(e.to_string().contains("p1..p4"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(TraceError::DuplicateMessage(MessageId::new(0)));
    }
}
