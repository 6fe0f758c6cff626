//! Error types shared across the stack.

use crate::time::Timestamp;
use core::fmt;

/// Errors surfaced by stream construction and execution.
///
/// A *late event* (arriving after the relevant punctuation) is normally a
/// policy matter, not an error: per the paper it is dropped, dead-lettered,
/// or rerouted to a higher-latency partition under a
/// [`LatePolicy`](crate::policy::LatePolicy), and every outcome is counted.
/// [`StreamError::LateEvent`] exists for callers that opt into strict
/// handling and for reporting a rejected push as typed data. The remaining
/// variants are API-misuse or resource-exhaustion conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A punctuation was issued with a timestamp lower than a previously
    /// issued one.
    PunctuationRegressed {
        /// Previously issued punctuation.
        previous: Timestamp,
        /// The offending punctuation.
        attempted: Timestamp,
    },
    /// Data was pushed after the stream was completed.
    PushAfterCompleted,
    /// An order-sensitive operator was asked to consume a disordered stream
    /// (events regressed below the operator's high watermark).
    OrderViolation {
        /// The operator's current watermark.
        watermark: Timestamp,
        /// The regressing event time.
        event_time: Timestamp,
    },
    /// Invalid configuration (empty latency set, non-increasing latencies,
    /// zero window size, ...).
    InvalidConfig(String),
    /// An event arrived at or below an already-issued punctuation and the
    /// active [`LatePolicy`](crate::policy::LatePolicy) rejected it.
    LateEvent {
        /// The punctuation the event fell behind.
        watermark: Timestamp,
        /// The late event's time.
        event_time: Timestamp,
    },
    /// A charge would push a [`MemoryMeter`](crate::MemoryMeter) past its
    /// enforced budget and no shed policy could reclaim enough state.
    MemoryExceeded {
        /// The enforced budget, bytes.
        budget: usize,
        /// Bytes the account attempted to hold.
        attempted: usize,
    },
    /// An operator panicked; the chain was poisoned and this terminal error
    /// delivered downstream instead of aborting the process.
    OperatorPanicked {
        /// Instrumented name of the panicking operator.
        operator: String,
        /// The panic payload, stringified when possible.
        message: String,
    },
    /// Crash recovery could not restore the pipeline's state (every retained
    /// checkpoint generation failed its integrity checks, or a restored
    /// snapshot did not match the pipeline's registered operators). Delivered
    /// as a terminal error instead of aborting; the underlying
    /// `SnapshotError` is stringified in `detail`.
    RecoveryFailed {
        /// Description of the failed recovery step.
        detail: String,
    },
    /// A spill-to-disk operation (sealing a cold run to a run file, or
    /// streaming a spilled run back through the merge) failed: an I/O
    /// error, a torn or truncated run file, or a checksum mismatch.
    /// Delivered as a terminal typed error instead of aborting; the
    /// underlying cause is stringified in `detail`.
    SpillFailed {
        /// Description of the failed spill step.
        detail: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::PunctuationRegressed {
                previous,
                attempted,
            } => write!(
                f,
                "punctuation regressed: {attempted} issued after {previous}"
            ),
            StreamError::PushAfterCompleted => {
                write!(f, "data pushed after stream completion")
            }
            StreamError::OrderViolation {
                watermark,
                event_time,
            } => write!(
                f,
                "ordered-stream violation: event at {event_time} behind watermark {watermark}"
            ),
            StreamError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            StreamError::LateEvent {
                watermark,
                event_time,
            } => write!(
                f,
                "late event: {event_time} arrived at or behind punctuation {watermark}"
            ),
            StreamError::MemoryExceeded { budget, attempted } => write!(
                f,
                "memory budget exceeded: {attempted} B attempted against a {budget} B budget"
            ),
            StreamError::OperatorPanicked { operator, message } => {
                write!(f, "operator '{operator}' panicked: {message}")
            }
            StreamError::RecoveryFailed { detail } => {
                write!(f, "crash recovery failed: {detail}")
            }
            StreamError::SpillFailed { detail } => {
                write!(f, "spill to disk failed: {detail}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Plumbing that previously carried stringified errors can now lift them
/// into the typed domain: a bare message is an [`InvalidConfig`].
///
/// [`InvalidConfig`]: StreamError::InvalidConfig
impl From<String> for StreamError {
    fn from(msg: String) -> Self {
        StreamError::InvalidConfig(msg)
    }
}

impl From<&str> for StreamError {
    fn from(msg: &str) -> Self {
        StreamError::InvalidConfig(msg.to_string())
    }
}

/// Convenience alias.
pub type Result<T, E = StreamError> = core::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StreamError::PunctuationRegressed {
            previous: Timestamp::new(10),
            attempted: Timestamp::new(5),
        };
        assert!(e.to_string().contains("T[5]"));
        assert!(e.to_string().contains("T[10]"));

        let e = StreamError::OrderViolation {
            watermark: Timestamp::new(3),
            event_time: Timestamp::new(1),
        };
        assert!(e.to_string().contains("violation"));

        assert!(StreamError::PushAfterCompleted
            .to_string()
            .contains("completion"));
        assert!(StreamError::InvalidConfig("empty".into())
            .to_string()
            .contains("empty"));

        let e = StreamError::LateEvent {
            watermark: Timestamp::new(9),
            event_time: Timestamp::new(4),
        };
        assert!(e.to_string().contains("late event"));
        assert!(e.to_string().contains("T[4]"));
        assert!(e.to_string().contains("T[9]"));

        let e = StreamError::MemoryExceeded {
            budget: 1024,
            attempted: 2048,
        };
        assert!(e.to_string().contains("1024 B budget"));
        assert!(e.to_string().contains("2048 B attempted"));

        let e = StreamError::OperatorPanicked {
            operator: "pipeline.03.window".into(),
            message: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("pipeline.03.window"));
        assert!(e.to_string().contains("index out of bounds"));

        let e = StreamError::SpillFailed {
            detail: "run-000000000003.run: checksum mismatch".into(),
        };
        assert!(e.to_string().contains("spill to disk failed"));
        assert!(e.to_string().contains("run-000000000003.run"));
    }

    #[test]
    fn from_string_lifts_to_invalid_config() {
        let e: StreamError = "bad ladder".into();
        assert_eq!(e, StreamError::InvalidConfig("bad ladder".into()));
        let e: StreamError = String::from("oops").into();
        assert!(matches!(e, StreamError::InvalidConfig(m) if m == "oops"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<StreamError>();
    }
}
