//! Registry-surfaced sorter diagnostics.
//!
//! The one-off accessors on [`crate::RunSet`] / [`crate::ImpatienceSorter`]
//! (run count, speculation counters) are useful in tests but invisible to a
//! pipeline-wide metrics snapshot. [`SorterGauges`] bundles them as shared
//! [`Gauge`] handles registered under a common name prefix, so the engine's
//! sorting operator can publish sorter state (the paper's Fig 5 run-count
//! and Fig 10 memory quantities) through a
//! [`MetricsRegistry`].

use impatience_core::{Gauge, MetricsRegistry};

/// Shared gauges describing the live state of one online sorter.
///
/// Updated by the engine at punctuation boundaries (just before a flush,
/// when buffering peaks, and just after), so the `high_water` marks capture
/// the true per-punctuation maxima without per-event overhead.
#[derive(Clone, Debug, Default)]
pub struct SorterGauges {
    /// Live sorted-run count (the paper's `k`, Fig 5). Zero for sorters
    /// without a run structure.
    pub runs: Gauge,
    /// Events currently buffered.
    pub buffered: Gauge,
    /// Bytes of sorter state buffered (the items plus a fixed overhead per
    /// run, bucket and spilled file); what a memory budget charges, and
    /// the high-water mark is the Fig 10 memory footprint.
    pub state_bytes: Gauge,
    /// Bytes of heap the sorter's buffers hold, spare capacity included.
    pub capacity_bytes: Gauge,
    /// Lifetime speculation fast-path hits (§III-E2).
    pub speculative_hits: Gauge,
    /// Lifetime speculation misses; hit rate is `hits / (hits + misses)`.
    pub speculative_misses: Gauge,
    /// Lifetime count of runs sealed into on-disk run files.
    pub spill_runs_spilled: Gauge,
    /// Live bytes held in spill files; the high-water mark is the peak
    /// on-disk footprint of the external sort.
    pub spill_bytes_on_disk: Gauge,
    /// Lifetime tiered-merge compaction passes over spill files.
    pub spill_merge_passes: Gauge,
    /// Lifetime bytes read back from spill files (merge + compaction).
    pub spill_bytes_read: Gauge,
    /// Lifetime bytes written to spill files (spill + compaction); the
    /// ratio to input bytes is the spill write amplification.
    pub spill_bytes_written: Gauge,
    /// Lifetime fsyncs issued for spill files and their directory.
    pub spill_fsyncs: Gauge,
}

impl SorterGauges {
    /// Fresh unregistered gauges (not visible in any snapshot).
    pub fn new() -> Self {
        Self::default()
    }

    /// Gauges backed by `registry` under `{prefix}.runs`,
    /// `{prefix}.buffered_events`, `{prefix}.state_bytes`,
    /// `{prefix}.capacity_bytes`,
    /// `{prefix}.speculative_hits`, `{prefix}.speculative_misses`, and the
    /// external-sort spill family `{prefix}.spill.runs_spilled`,
    /// `{prefix}.spill.bytes_on_disk`, `{prefix}.spill.merge_passes`,
    /// `{prefix}.spill.bytes_read`, `{prefix}.spill.bytes_written`, and
    /// `{prefix}.spill.fsyncs`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        SorterGauges {
            runs: registry.gauge(&format!("{prefix}.runs")),
            buffered: registry.gauge(&format!("{prefix}.buffered_events")),
            state_bytes: registry.gauge(&format!("{prefix}.state_bytes")),
            capacity_bytes: registry.gauge(&format!("{prefix}.capacity_bytes")),
            speculative_hits: registry.gauge(&format!("{prefix}.speculative_hits")),
            speculative_misses: registry.gauge(&format!("{prefix}.speculative_misses")),
            spill_runs_spilled: registry.gauge(&format!("{prefix}.spill.runs_spilled")),
            spill_bytes_on_disk: registry.gauge(&format!("{prefix}.spill.bytes_on_disk")),
            spill_merge_passes: registry.gauge(&format!("{prefix}.spill.merge_passes")),
            spill_bytes_read: registry.gauge(&format!("{prefix}.spill.bytes_read")),
            spill_bytes_written: registry.gauge(&format!("{prefix}.spill.bytes_written")),
            spill_fsyncs: registry.gauge(&format!("{prefix}.spill.fsyncs")),
        }
    }

    /// Tombstones the *live* state gauges (runs, buffered events, state
    /// and capacity bytes, bytes on disk) back to zero. Called when the owning sorter
    /// dies — error, panic-unwind, teardown — so a registry snapshot never
    /// reports a dead sorter's buffers as live. High-water marks and the
    /// lifetime counters (speculation, runs spilled, merge passes, spill
    /// I/O totals) survive: those are history, not liveness.
    pub fn clear(&self) {
        self.runs.set(0);
        self.buffered.set(0);
        self.state_bytes.set(0);
        self.capacity_bytes.set(0);
        self.spill_bytes_on_disk.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_gauges_share_with_registry() {
        let registry = MetricsRegistry::new();
        let g = SorterGauges::register(&registry, "pipeline.00.sorter");
        g.runs.set(4);
        g.state_bytes.set(4096);
        g.state_bytes.set(128);
        assert_eq!(registry.gauge("pipeline.00.sorter.runs").get(), 4);
        assert_eq!(
            registry
                .gauge("pipeline.00.sorter.state_bytes")
                .high_water(),
            4096
        );
    }

    #[test]
    fn clear_tombstones_live_spill_state_but_keeps_history() {
        let registry = MetricsRegistry::new();
        let g = SorterGauges::register(&registry, "p.00.sorter");
        g.spill_runs_spilled.set(5);
        g.spill_bytes_on_disk.set(8192);
        g.spill_merge_passes.set(2);
        g.clear();
        assert_eq!(registry.gauge("p.00.sorter.spill.bytes_on_disk").get(), 0);
        assert_eq!(
            registry
                .gauge("p.00.sorter.spill.bytes_on_disk")
                .high_water(),
            8192,
            "on-disk high water survives the tombstone"
        );
        assert_eq!(
            registry.gauge("p.00.sorter.spill.runs_spilled").get(),
            5,
            "lifetime spill counters are history, not liveness"
        );
        assert_eq!(registry.gauge("p.00.sorter.spill.merge_passes").get(), 2);
    }
}
