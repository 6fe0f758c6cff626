//! The paper's synthetic generator (§VI-A).
//!
//! "It starts with a sorted dataset with increasing timestamps, and makes
//! p% of events delayed by moving their timestamps backward, based on the
//! absolute value of a sample from a normal distribution with mean 0 and
//! standard deviation d."
//!
//! Fig 7(b) sweeps `d ∈ {1024, 256, 64, 16, 4}` at fixed p; Fig 7(c)
//! sweeps `p ∈ {100, 30, 10, 3, 1}` at fixed d; Fig 8(a) uses the paper's
//! default `p = 30%, d = 64`.

use crate::dataset::Dataset;
use crate::rand_util::normal;
use impatience_core::{Event, Timestamp};
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};

/// Configuration for [`generate_synthetic`].
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Number of events.
    pub events: usize,
    /// Fraction of events delayed, in `[0, 1]` (the paper's `p%`).
    pub percent_disorder: f64,
    /// Standard deviation of the delay distribution in ticks (the paper's
    /// `d`).
    pub amount_disorder: f64,
    /// Ticks between consecutive base timestamps.
    pub spacing: i64,
    /// RNG seed (generation is deterministic given the config).
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            events: 1_000_000,
            percent_disorder: 0.30,
            amount_disorder: 64.0,
            spacing: 1,
            seed: 0x1CDE_2018,
        }
    }
}

impl SyntheticConfig {
    /// The paper's Fig 8(a) profile (`p = 30%, d = 64`) at a given size.
    pub fn paper_default(events: usize) -> Self {
        SyntheticConfig {
            events,
            ..Default::default()
        }
    }
}

/// Generates the synthetic out-of-order dataset.
pub fn generate_synthetic(cfg: &SyntheticConfig) -> Dataset {
    assert!((0.0..=1.0).contains(&cfg.percent_disorder));
    assert!(cfg.amount_disorder >= 0.0);
    assert!(cfg.spacing > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut events = Vec::with_capacity(cfg.events);
    for i in 0..cfg.events {
        let base = i as i64 * cfg.spacing;
        let t = if rng.gen::<f64>() < cfg.percent_disorder {
            let delay = normal(&mut rng, cfg.amount_disorder).abs() * cfg.spacing as f64;
            (base - delay.round() as i64).max(0)
        } else {
            base
        };
        let payload = [i as u32, rng.gen(), rng.gen(), rng.gen()];
        let key = rng.gen_range(0..1024u32);
        events.push(Event::keyed(Timestamp::new(t), key, payload));
    }
    Dataset {
        name: format!(
            "Synthetic(p={:.0}%, d={})",
            cfg.percent_disorder * 100.0,
            cfg.amount_disorder
        ),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = SyntheticConfig {
            events: 1000,
            ..Default::default()
        };
        let a = generate_synthetic(&cfg);
        let b = generate_synthetic(&cfg);
        assert_eq!(a.events, b.events);
        let c = generate_synthetic(&SyntheticConfig { seed: 1, ..cfg });
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn zero_percent_is_sorted() {
        let d = generate_synthetic(&SyntheticConfig {
            events: 5000,
            percent_disorder: 0.0,
            ..Default::default()
        });
        let ts = d.event_times();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn disorder_fraction_roughly_p() {
        let d = generate_synthetic(&SyntheticConfig {
            events: 20_000,
            percent_disorder: 0.30,
            amount_disorder: 64.0,
            ..Default::default()
        });
        // Delayed events sit below their base position i*spacing.
        let displaced = d
            .events
            .iter()
            .enumerate()
            .filter(|(i, e)| e.sync_time.ticks() < *i as i64)
            .count();
        let frac = displaced as f64 / d.len() as f64;
        // |N(0,64)| rounds to 0 occasionally, so slightly under 30%.
        assert!((0.25..=0.32).contains(&frac), "frac={frac}");
    }

    #[test]
    fn delay_scale_tracks_d() {
        let small = generate_synthetic(&SyntheticConfig {
            events: 20_000,
            amount_disorder: 4.0,
            ..Default::default()
        });
        let large = generate_synthetic(&SyntheticConfig {
            events: 20_000,
            amount_disorder: 1024.0,
            ..Default::default()
        });
        let max_delay = |d: &Dataset| {
            let mut clock = impatience_core::WatermarkClock::NEW;
            d.events
                .iter()
                .map(|e| clock.arrive(e.sync_time))
                .max()
                .unwrap()
        };
        assert!(max_delay(&large) > 10 * max_delay(&small));
    }

    #[test]
    fn timestamps_never_negative() {
        let d = generate_synthetic(&SyntheticConfig {
            events: 5000,
            percent_disorder: 1.0,
            amount_disorder: 10_000.0,
            ..Default::default()
        });
        assert!(d.events.iter().all(|e| e.sync_time >= Timestamp::ZERO));
    }

    #[test]
    fn more_disorder_means_more_runs() {
        use impatience_disorder::count_natural_runs;
        let lo = generate_synthetic(&SyntheticConfig {
            events: 10_000,
            percent_disorder: 0.01,
            ..Default::default()
        });
        let hi = generate_synthetic(&SyntheticConfig {
            events: 10_000,
            percent_disorder: 1.0,
            ..Default::default()
        });
        let runs = |d: &Dataset| count_natural_runs(&d.event_times());
        assert!(runs(&hi) > 3 * runs(&lo));
    }
}
