//! Admission control: the service-wide budget tenants are charged
//! against before any pipeline is built.
//!
//! Admission reuses the engine's [`MemoryMeter`] as its currency — the
//! same accounting the sort stage's [`ShedPolicy`] degrades against, so
//! "the service is full" and "this tenant's sorter must shed" are two
//! readings of one budget. A tenant is admitted iff (a) its name is not
//! already active, (b) the tenant count is under the cap, and (c) its
//! declared memory budget fits in what remains of the service budget.
//! The returned [`AdmissionTicket`] releases all three on drop, so a
//! crashed connection can never leak capacity.
//!
//! [`ShedPolicy`]: impatience_core::ShedPolicy

use crate::error::ServeError;
use impatience_core::{Counter, MemoryMeter, MetricsRegistry};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Tenants that declare no budget are charged this much (bytes).
pub const DEFAULT_TENANT_CHARGE: usize = 8 << 20;

/// Service-wide admission state. Cheap to clone via [`Arc`].
pub struct AdmissionController {
    meter: MemoryMeter,
    max_tenants: usize,
    active: Mutex<HashSet<String>>,
    admitted: Counter,
    rejected: Counter,
}

impl core::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("max_tenants", &self.max_tenants)
            .field("admitted", &self.admitted.get())
            .field("rejected", &self.rejected.get())
            .finish_non_exhaustive()
    }
}

impl AdmissionController {
    /// A controller over `meter` (the service budget; unbudgeted meters
    /// admit any size), capping concurrency at `max_tenants`, publishing
    /// `serve.admitted` / `serve.rejected` into `registry`.
    pub fn new(meter: MemoryMeter, max_tenants: usize, registry: &MetricsRegistry) -> Self {
        AdmissionController {
            meter,
            max_tenants,
            active: Mutex::new(HashSet::new()),
            admitted: registry.counter("serve.admitted"),
            rejected: registry.counter("serve.rejected"),
        }
    }

    /// Currently active tenant count.
    pub fn active_tenants(&self) -> usize {
        self.active.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Tries to admit `name` with an optional declared budget. On
    /// success the ticket holds the charge until dropped.
    pub fn admit(
        self: &Arc<Self>,
        name: &str,
        declared_budget: Option<usize>,
    ) -> Result<AdmissionTicket, ServeError> {
        let reject = |reason: String| {
            self.rejected.inc();
            Err(ServeError::Admission { reason })
        };
        let bytes = declared_budget.unwrap_or(DEFAULT_TENANT_CHARGE);
        {
            let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
            if active.contains(name) {
                return reject(format!("tenant \"{name}\" is already active"));
            }
            if active.len() >= self.max_tenants {
                return reject(format!(
                    "at capacity: {} of {} tenants active",
                    active.len(),
                    self.max_tenants
                ));
            }
            if let Err(e) = self.meter.try_charge(bytes) {
                return reject(format!("budget exhausted admitting {bytes} B: {e}"));
            }
            active.insert(name.to_string());
        }
        self.admitted.inc();
        Ok(AdmissionTicket {
            name: name.to_string(),
            bytes,
            controller: Arc::clone(self),
        })
    }
}

/// Proof of admission; releases the name and the budget charge on drop.
#[derive(Debug)]
pub struct AdmissionTicket {
    name: String,
    bytes: usize,
    controller: Arc<AdmissionController>,
}

impl AdmissionTicket {
    /// The admitted tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes charged against the service budget.
    pub fn charged(&self) -> usize {
        self.bytes
    }
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        self.controller
            .active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.name);
        self.controller.meter.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(budget: usize, cap: usize) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(
            MemoryMeter::with_budget(budget),
            cap,
            &MetricsRegistry::new(),
        ))
    }

    #[test]
    fn duplicate_names_and_caps_are_rejected_with_reasons() {
        let c = controller(1 << 30, 2);
        let _a = c.admit("a", Some(1)).expect("a");
        let err = c.admit("a", Some(1)).expect_err("duplicate");
        assert!(matches!(&err, ServeError::Admission { reason } if reason.contains("already")));
        let _b = c.admit("b", Some(1)).expect("b");
        let err = c.admit("c", Some(1)).expect_err("cap");
        assert!(matches!(&err, ServeError::Admission { reason } if reason.contains("capacity")));
    }

    #[test]
    fn budget_is_charged_and_released_by_ticket_drop() {
        let c = controller(100, 8);
        let t = c.admit("a", Some(80)).expect("fits");
        let err = c.admit("b", Some(40)).expect_err("over budget");
        assert!(matches!(err, ServeError::Admission { .. }));
        drop(t);
        assert_eq!(c.active_tenants(), 0);
        let _b = c.admit("b", Some(40)).expect("fits after release");
    }
}
