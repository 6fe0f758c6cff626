//! Shared configuration-validation vocabulary.
//!
//! Every builder in the workspace (`SortPolicy`, `FrameworkPolicy`, the
//! serving layer's `TenantConfig`, and the declarative `PipelineSpec`)
//! validates against the same typed error:
//! a [`ConfigError`] names the offending field and the rule it broke, so
//! a service front-end can echo a precise diagnostic back over the wire
//! instead of a stringly `InvalidConfig`. The lossy bridge into the
//! engine's error channel ([`StreamError::InvalidConfig`]) is a `From`
//! impl, keeping existing signatures unchanged.

use crate::error::StreamError;
use crate::time::TickDuration;

/// A typed configuration-validation failure: which field, which rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the rejected field (e.g. `spec.sort.shed`).
    pub field: String,
    /// Human-readable rule the value broke.
    pub reason: String,
}

impl ConfigError {
    /// A new typed error for `field` breaking `reason`.
    pub fn new(field: impl Into<String>, reason: impl Into<String>) -> Self {
        ConfigError {
            field: field.into(),
            reason: reason.into(),
        }
    }

    /// Re-scopes the error under a parent field (`parent.field`), used as
    /// nested specs validate their children.
    pub fn scoped(mut self, parent: &str) -> Self {
        self.field = format!("{parent}.{}", self.field);
        self
    }
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid config: {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for StreamError {
    fn from(e: ConfigError) -> StreamError {
        StreamError::InvalidConfig(format!("{}: {}", e.field, e.reason))
    }
}

/// Implemented by every configuration struct that follows the workspace
/// builder convention (`with_*` setters + `Default` + typed validation).
pub trait Validate {
    /// Checks the configuration, naming the first offending field.
    fn validate(&self) -> core::result::Result<(), ConfigError>;
}

/// The one rule for a ladder of reorder latencies — the adaptive
/// controller's candidates, a spec's `reorder.ladder` and the framework's
/// rungs: non-empty, at most 255 rungs (a rung index fits in a byte),
/// non-negative and strictly increasing. The error names the field
/// `ladder`; callers scope it (`reorder.ladder`).
pub fn validate_ladder(ladder: &[TickDuration]) -> core::result::Result<(), ConfigError> {
    if ladder.is_empty() {
        return Err(ConfigError::new("ladder", "must not be empty"));
    }
    if ladder.len() > 255 {
        return Err(ConfigError::new("ladder", "at most 255 rungs"));
    }
    if ladder[0] < TickDuration::ZERO {
        return Err(ConfigError::new("ladder", "latencies must be non-negative"));
    }
    if ladder.windows(2).any(|w| w[1] <= w[0]) {
        return Err(ConfigError::new("ladder", "must be strictly increasing"));
    }
    Ok(())
}

/// The largest adaptive window, in arrivals. The controller allocates a
/// byte per arrival up front, outside any tenant's memory account, so a
/// client-sent window must not be able to ask for gigabytes.
pub const MAX_ADAPTIVE_WINDOW: usize = 1 << 20;

/// The one rule for an adaptive controller's settings — a spec's
/// `reorder` in adaptive mode and the controller's own config: the ladder
/// passes [`validate_ladder`], the quality target is in `(0, 1]` and the
/// window holds 1 to [`MAX_ADAPTIVE_WINDOW`] arrivals. The error names the
/// field (`ladder`, `quality`, `window`); callers scope it
/// (`reorder.quality`).
pub fn validate_adaptive(
    ladder: &[TickDuration],
    quality: f64,
    window: usize,
) -> core::result::Result<(), ConfigError> {
    validate_ladder(ladder)?;
    if !(quality > 0.0 && quality <= 1.0) {
        return Err(ConfigError::new("quality", "must be in (0, 1]"));
    }
    if window == 0 {
        return Err(ConfigError::new("window", "must be >= 1"));
    }
    if window > MAX_ADAPTIVE_WINDOW {
        return Err(ConfigError::new(
            "window",
            format!("must be <= {MAX_ADAPTIVE_WINDOW} arrivals"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_field_and_reason() {
        let e = ConfigError::new("shards", "must be >= 1");
        assert_eq!(e.to_string(), "invalid config: shards: must be >= 1");
    }

    #[test]
    fn scoped_prefixes_parent() {
        let e = ConfigError::new("every_n", "must be >= 1").scoped("checkpoint");
        assert_eq!(e.field, "checkpoint.every_n");
    }

    #[test]
    fn lifts_into_stream_error() {
        let e: StreamError = ConfigError::new("ladder", "must be strictly increasing").into();
        match e {
            StreamError::InvalidConfig(msg) => {
                assert!(msg.contains("ladder"), "{msg}");
                assert!(msg.contains("strictly increasing"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
