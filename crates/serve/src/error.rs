//! The service-layer error type: every way a tenant connection can fail,
//! as data. Errors cross the wire as a typed JSON object (see
//! [`ServeError::to_json`]) so a client can distinguish "your spec is
//! invalid" from "your operator panicked" from "the service is full" —
//! and, critically, a tenant only ever sees *its own* errors: a fault in
//! one tenant's pipeline surfaces on that tenant's connection and nowhere
//! else (the isolation contract, exercised by `tests/tenant_isolation.rs`).

use impatience_core::{json, ConfigError, Json, StreamError};

/// Typed failure of a service operation, scoped to one tenant connection.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A spec or config failed validation before any pipeline was built.
    Config(ConfigError),
    /// The tenant's pipeline reported a typed stream error (operator
    /// panic under `hardened`, memory budget, late events, ...).
    Stream(StreamError),
    /// The admission controller refused the tenant.
    Admission {
        /// Why: over tenant cap, over memory budget, duplicate name.
        reason: String,
    },
    /// A frame violated the wire protocol.
    Protocol {
        /// What was malformed or out of order.
        detail: String,
    },
    /// Socket or tenant-directory I/O failed.
    Io {
        /// Operation context plus the OS error.
        detail: String,
    },
    /// The tenant's pipeline died (panic outside `hardened`, poisoned
    /// state); the tenant must be re-opened.
    TenantFailed {
        /// Tenant name.
        tenant: String,
        /// Terminal cause.
        detail: String,
    },
    /// The client fell too far behind: its unacknowledged replies
    /// exceeded the server's bounded reply buffer, so the session was
    /// evicted rather than growing without bound.
    SlowConsumer {
        /// Tenant name.
        tenant: String,
        /// Bytes buffered when the bound tripped.
        buffered: u64,
    },
    /// A session-protocol failure: bad resume token, sequence gap,
    /// expired parked session. `retryable` tells the client whether
    /// reconnecting with the same token can succeed.
    Session {
        /// What went wrong.
        detail: String,
        /// Whether a fresh reconnect/resume attempt may succeed.
        retryable: bool,
    },
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "{e}"),
            ServeError::Stream(e) => write!(f, "{e}"),
            ServeError::Admission { reason } => write!(f, "admission refused: {reason}"),
            ServeError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            ServeError::Io { detail } => write!(f, "service i/o failed: {detail}"),
            ServeError::TenantFailed { tenant, detail } => {
                write!(f, "tenant {tenant} failed: {detail}")
            }
            ServeError::SlowConsumer { tenant, buffered } => {
                write!(
                    f,
                    "tenant {tenant} evicted as slow consumer ({buffered} bytes unacked)"
                )
            }
            ServeError::Session { detail, retryable } => {
                write!(
                    f,
                    "session error: {detail} ({})",
                    if *retryable { "retryable" } else { "fatal" }
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        ServeError::Stream(e)
    }
}

impl ServeError {
    /// Wraps an I/O error with its operation context.
    pub fn io(context: &str, e: std::io::Error) -> Self {
        ServeError::Io {
            detail: format!("{context}: {e}"),
        }
    }

    /// The wire form: `{"kind": ..., "detail": ...}` plus a `tenant`
    /// field when the error is tenant-scoped.
    pub fn to_json(&self) -> Json {
        match self {
            ServeError::Config(e) => json!({
                "kind": "config",
                "field": e.field.as_str(),
                "detail": e.reason.as_str(),
            }),
            ServeError::Stream(e) => json!({
                "kind": "stream",
                "detail": format!("{e}"),
            }),
            ServeError::Admission { reason } => json!({
                "kind": "admission",
                "detail": reason.as_str(),
            }),
            ServeError::Protocol { detail } => json!({
                "kind": "protocol",
                "detail": detail.as_str(),
            }),
            ServeError::Io { detail } => json!({
                "kind": "io",
                "detail": detail.as_str(),
            }),
            ServeError::TenantFailed { tenant, detail } => json!({
                "kind": "tenant_failed",
                "tenant": tenant.as_str(),
                "detail": detail.as_str(),
            }),
            ServeError::SlowConsumer { tenant, buffered } => json!({
                "kind": "slow_consumer",
                "tenant": tenant.as_str(),
                "detail": format!("{buffered} bytes unacked"),
                "buffered": *buffered as i64,
            }),
            ServeError::Session { detail, retryable } => json!({
                "kind": "session",
                "detail": detail.as_str(),
                "retryable": *retryable,
            }),
        }
    }

    /// Decodes the wire form back into a (lossy: `Config`/`Stream`
    /// collapse to their rendered text) typed error, for clients.
    pub fn from_json(v: &Json) -> ServeError {
        let kind = v.get("kind").and_then(Json::as_str).unwrap_or("protocol");
        let detail = v
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or("malformed error frame")
            .to_string();
        match kind {
            "config" => ServeError::Config(ConfigError::new(
                v.get("field").and_then(Json::as_str).unwrap_or("?"),
                detail,
            )),
            "stream" => ServeError::Stream(StreamError::InvalidConfig(detail)),
            "admission" => ServeError::Admission { reason: detail },
            "io" => ServeError::Io { detail },
            "tenant_failed" => ServeError::TenantFailed {
                tenant: v
                    .get("tenant")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                detail,
            },
            "slow_consumer" => ServeError::SlowConsumer {
                tenant: v
                    .get("tenant")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                buffered: v.get("buffered").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
            },
            "session" => ServeError::Session {
                detail,
                retryable: v.get("retryable").and_then(Json::as_bool).unwrap_or(false),
            },
            _ => ServeError::Protocol { detail },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip_preserves_kind() {
        let errs = [
            ServeError::Admission {
                reason: "full".into(),
            },
            ServeError::Protocol {
                detail: "bad frame".into(),
            },
            ServeError::TenantFailed {
                tenant: "a".into(),
                detail: "panic".into(),
            },
            ServeError::SlowConsumer {
                tenant: "b".into(),
                buffered: 4096,
            },
            ServeError::Session {
                detail: "unknown resume token".into(),
                retryable: true,
            },
        ];
        for e in errs {
            assert_eq!(ServeError::from_json(&e.to_json()), e);
        }
    }

    #[test]
    fn config_errors_keep_their_field() {
        let e = ServeError::from(ConfigError::new("shards", "must be >= 1"));
        match ServeError::from_json(&e.to_json()) {
            ServeError::Config(c) => assert_eq!(c.field, "shards"),
            other => panic!("expected config error, got {other:?}"),
        }
    }
}
