//! Online disorder measures and quality-driven reorder-latency selection.
//!
//! The offline measures in this crate score a finished trace; a *serving*
//! layer needs the same signal live, per tenant, in `O(1)` per event. This
//! module tracks the empirical **tardiness** distribution (delay of each
//! arrival behind the running high watermark, by the one lateness rule of
//! [`WatermarkClock`]) over a sliding window, and
//! drives an [`AdaptiveLatency`] controller that picks the smallest
//! reorder latency `l_i` from a configured ladder whose expected
//! completeness meets a result-quality target — the quality-driven
//! disorder handling of Ji et al. (see PAPERS.md) applied to the
//! Impatience ingress contract: punctuations are issued at
//! `watermark − l(t)` where `l(t)` adapts to the stream.

use impatience_core::config::{validate_adaptive, validate_ladder, ConfigError, Validate};
use impatience_core::metrics::{Counter, Gauge};
use impatience_core::{TickDuration, Timestamp, WatermarkClock};

/// Sliding-window tardiness tracker, bucketed by a latency ladder.
///
/// Each observed arrival is classified against a strictly increasing
/// ladder `l_0 < l_1 < … < l_{k-1}`: the event lands in the rung of the
/// smallest `l_i` that would have been *sufficient* to sort it (it is
/// inside `l_i`: its delay is `< l_i`, [`WatermarkClock::rung`]), or in an
/// overflow bucket when even the top rung would have been too small. Rung
/// counts over the last `capacity` events give the empirical completeness
/// of every candidate latency at once, in `O(1)` per event.
#[derive(Debug, Clone)]
pub struct DelayWindow {
    ladder: Vec<TickDuration>,
    /// Rung index per windowed event; `ladder.len()` marks overflow.
    ring: Vec<u8>,
    head: usize,
    len: usize,
    counts: Vec<u64>,
    clock: WatermarkClock,
    max_delay: TickDuration,
    observed: u64,
}

impl DelayWindow {
    /// A window over the last `capacity` arrivals, classified against
    /// `ladder`. The ladder must be non-empty, non-negative, strictly
    /// increasing, and short enough to index with a byte; `capacity` must
    /// be at least 1.
    pub fn new(ladder: &[TickDuration], capacity: usize) -> Result<DelayWindow, ConfigError> {
        validate_ladder(ladder)?;
        if capacity == 0 {
            return Err(ConfigError::new("window", "capacity must be >= 1"));
        }
        Ok(DelayWindow {
            ladder: ladder.to_vec(),
            ring: vec![0; capacity],
            head: 0,
            len: 0,
            counts: vec![0; ladder.len() + 1],
            clock: WatermarkClock::NEW,
            max_delay: TickDuration::ZERO,
            observed: 0,
        })
    }

    /// Observes one arrival. Its delay is the clock's: against the
    /// watermark *before* this event advances it, matching what an ingress
    /// sorter would have had to buffer to emit it in order.
    ///
    /// No branch depends on the data: the clock's delay and rung have
    /// none, the worst tardiness starts at zero so `max` ignores the
    /// negative delays of arrivals that raise the watermark, and an
    /// unfilled ring evicts nothing by subtracting zero.
    pub fn observe(&mut self, ts: Timestamp) {
        let delay = self.clock.arrive(ts);
        self.observed += 1;
        self.max_delay = self.max_delay.max(TickDuration::ticks(delay));
        let rung = WatermarkClock::rung(delay, &self.ladder);
        let full = (self.len == self.ring.len()) as usize;
        self.counts[self.ring[self.head] as usize] -= full as u64;
        self.len += 1 - full;
        self.ring[self.head] = rung as u8;
        self.counts[rung] += 1;
        let next = self.head + 1;
        self.head = if next == self.ring.len() { 0 } else { next };
    }

    /// Fraction of windowed arrivals a reorder latency of `ladder[rung]`
    /// would have sorted (delay < `l`). Returns 1.0 on an empty window.
    pub fn completeness_at(&self, rung: usize) -> f64 {
        assert!(rung < self.ladder.len(), "rung out of range");
        if self.len == 0 {
            return 1.0;
        }
        let covered: u64 = self.counts[..=rung].iter().sum();
        covered as f64 / self.len as f64
    }

    /// The candidate ladder.
    pub fn ladder(&self) -> &[TickDuration] {
        &self.ladder
    }

    /// Events currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total arrivals ever observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Worst tardiness ever observed.
    pub fn max_delay(&self) -> TickDuration {
        self.max_delay
    }
}

/// Configuration for an [`AdaptiveLatency`] controller.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Candidate reorder latencies, strictly increasing.
    pub ladder: Vec<TickDuration>,
    /// Result-quality target: minimum fraction of arrivals the selected
    /// latency must sort, in `(0, 1]`.
    pub quality: f64,
    /// Sliding-window size (arrivals) the decision is made over.
    pub window: usize,
    /// Consecutive decisions required before stepping *down* the ladder
    /// (stepping up on a quality breach is immediate).
    pub hold: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            ladder: vec![
                TickDuration::millis(1),
                TickDuration::millis(10),
                TickDuration::millis(100),
                TickDuration::secs(1),
                TickDuration::secs(10),
            ],
            quality: 0.999,
            window: 4096,
            hold: 3,
        }
    }
}

impl AdaptiveConfig {
    /// Default configuration (the paper's `{1ms, 10ms, 100ms, 1s, 10s}`
    /// ladder, 99.9% quality, 4096-event window).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the candidate ladder.
    pub fn with_ladder(mut self, ladder: Vec<TickDuration>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Sets the completeness target.
    pub fn with_quality(mut self, quality: f64) -> Self {
        self.quality = quality;
        self
    }

    /// Sets the sliding-window size.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the step-down hold count.
    pub fn with_hold(mut self, hold: u32) -> Self {
        self.hold = hold;
        self
    }
}

impl Validate for AdaptiveConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        validate_adaptive(&self.ladder, self.quality, self.window)
    }
}

/// Gauges mirroring an [`AdaptiveLatency`] controller's live state, for a
/// metrics registry. Register under a prefix with
/// [`AdaptiveLatency::bind_gauges`].
#[derive(Debug, Clone, Default)]
pub struct AdaptiveGauges {
    /// Currently selected reorder latency, ticks.
    pub latency: Gauge,
    /// Selected rung index in the ladder.
    pub rung: Gauge,
    /// Windowed completeness of the selected rung, parts per million.
    pub completeness_ppm: Gauge,
    /// Worst observed tardiness, ticks.
    pub max_delay: Gauge,
    /// Ladder switches taken so far.
    pub switches: Counter,
}

/// Quality-driven online reorder-latency selector.
///
/// Feed every arrival through [`observe`](Self::observe); read the chosen
/// latency with [`current`](Self::current). The controller re-decides at
/// most once per `window/4` arrivals: it steps **up** immediately when the
/// current rung's windowed completeness falls below the quality target,
/// and steps **down** only after `hold` consecutive decisions agree the
/// next-smaller rung would still meet the target — hysteresis that keeps a
/// bursty stream from flapping between rungs.
#[derive(Debug, Clone)]
pub struct AdaptiveLatency {
    window: DelayWindow,
    config: AdaptiveConfig,
    rung: usize,
    down_streak: u32,
    switches: u64,
    since_decision: usize,
    decide_every: usize,
    gauges: Option<AdaptiveGauges>,
}

impl AdaptiveLatency {
    /// A controller starting at the **top** of the ladder (most patient,
    /// never under-sorts a cold stream) that works its way down as the
    /// window fills with evidence.
    pub fn new(config: AdaptiveConfig) -> Result<AdaptiveLatency, ConfigError> {
        config.validate()?;
        let window = DelayWindow::new(&config.ladder, config.window)?;
        let decide_every = (config.window / 4).max(1);
        Ok(AdaptiveLatency {
            rung: config.ladder.len() - 1,
            window,
            config,
            down_streak: 0,
            switches: 0,
            since_decision: 0,
            decide_every,
            gauges: None,
        })
    }

    /// Mirrors controller state into `gauges` (pre-registered under the
    /// caller's prefix) on every decision.
    pub fn bind_gauges(&mut self, gauges: AdaptiveGauges) {
        gauges.latency.set(self.current().as_ticks());
        gauges.rung.set(self.rung as i64);
        self.gauges = Some(gauges);
    }

    /// The currently selected reorder latency.
    pub fn current(&self) -> TickDuration {
        self.config.ladder[self.rung]
    }

    /// The currently selected rung index.
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Ladder switches taken so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The underlying tardiness window (completeness per rung, max delay).
    pub fn window(&self) -> &DelayWindow {
        &self.window
    }

    /// Observes one arrival and returns the latency selected *after* this
    /// arrival (unchanged between decision points).
    pub fn observe(&mut self, ts: Timestamp) -> TickDuration {
        self.window.observe(ts);
        self.since_decision += 1;
        if self.since_decision >= self.decide_every && self.window.len() >= self.decide_every {
            self.since_decision = 0;
            self.decide();
        }
        self.current()
    }

    fn decide(&mut self) {
        let quality = self.config.quality;
        let here = self.window.completeness_at(self.rung);
        let mut switched = false;
        if here < quality {
            // Quality breach: jump straight to the smallest sufficient rung.
            if let Some(up) = (self.rung + 1..self.config.ladder.len())
                .find(|r| self.window.completeness_at(*r) >= quality)
                .or(if self.rung + 1 < self.config.ladder.len() {
                    Some(self.config.ladder.len() - 1)
                } else {
                    None
                })
            {
                self.rung = up;
                switched = true;
            }
            self.down_streak = 0;
        } else if self.rung > 0 && self.window.completeness_at(self.rung - 1) >= quality {
            self.down_streak += 1;
            if self.down_streak >= self.config.hold {
                self.rung -= 1;
                self.down_streak = 0;
                switched = true;
            }
        } else {
            self.down_streak = 0;
        }
        if switched {
            self.switches += 1;
        }
        if let Some(g) = &self.gauges {
            g.latency.set(self.current().as_ticks());
            g.rung.set(self.rung as i64);
            g.completeness_ppm
                .set((self.window.completeness_at(self.rung) * 1_000_000.0) as i64);
            g.max_delay.set(self.window.max_delay().as_ticks());
            if switched {
                g.switches.add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Vec<TickDuration> {
        vec![
            TickDuration::ticks(0),
            TickDuration::ticks(8),
            TickDuration::ticks(64),
            TickDuration::ticks(512),
        ]
    }

    #[test]
    fn window_matches_offline_completeness() {
        let mut w = DelayWindow::new(&ladder(), 1024).unwrap();
        // Alternating pattern: every odd event arrives 10 ticks behind.
        let mut ts = Vec::new();
        for i in 0..500i64 {
            let t = i * 4;
            ts.push(if i % 2 == 1 { t - 10 } else { t });
        }
        // Delay against the high before each arrival, unclamped; inside
        // latency `l` iff it is below `l`.
        let mut high = i64::MIN;
        let mut delays = Vec::new();
        for &t in &ts {
            delays.push(high.saturating_sub(t));
            high = high.max(t);
            w.observe(Timestamp::new(t));
        }
        for (rung, l) in ladder().iter().enumerate() {
            let offline =
                delays.iter().filter(|d| **d < l.as_ticks()).count() as f64 / delays.len() as f64;
            let online = w.completeness_at(rung);
            assert!(
                (offline - online).abs() < 1e-9,
                "rung {rung}: offline {offline} vs online {online}"
            );
        }
    }

    /// `DelayWindow::observe` written with per-event branches: the
    /// reference the branch-free version is checked against. The delay is
    /// taken against the high before the arrival (`MIN` before the first),
    /// unclamped and clamped to `i64` only at its ends; the event lands in
    /// the first rung whose latency exceeds it.
    fn observe_branchy(w: &mut DelayWindow, ts: Timestamp) {
        let high = w.clock.high;
        let wide = high.ticks() as i128 - ts.ticks() as i128;
        let delay = if wide > i64::MAX as i128 {
            i64::MAX
        } else if wide < i64::MIN as i128 {
            i64::MIN
        } else {
            wide as i64
        };
        if ts > high {
            w.clock.high = ts;
        }
        w.observed += 1;
        if delay > w.max_delay.as_ticks() {
            w.max_delay = TickDuration::ticks(delay);
        }
        let rung = w
            .ladder
            .iter()
            .position(|l| delay < l.as_ticks())
            .unwrap_or(w.ladder.len()) as u8;
        if w.len == w.ring.len() {
            let evicted = w.ring[w.head];
            w.counts[evicted as usize] -= 1;
        } else {
            w.len += 1;
        }
        w.ring[w.head] = rung;
        w.counts[rung as usize] += 1;
        w.head = (w.head + 1) % w.ring.len();
    }

    #[test]
    fn branch_free_observe_matches_the_branchy_reference() {
        use impatience_testkit::rng::splitmix64;
        let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let ladders = [
            ladder(),
            vec![TickDuration::ticks(0)],
            vec![TickDuration::ticks(3), TickDuration::ticks(i64::MAX)],
            (0..255).map(|i| TickDuration::ticks(i * 7)).collect(),
        ];
        for seed in 0..64u64 {
            let mut state = seed;
            let lad = &ladders[seed as usize % ladders.len()];
            let capacity = 1 + (splitmix64(&mut state) % 40) as usize;
            let mut fast = DelayWindow::new(lad, capacity).unwrap();
            let mut slow = fast.clone();
            let mut t = (splitmix64(&mut state) % 2_000) as i64 - 1_000;
            for step in 0..600 {
                let r = splitmix64(&mut state);
                t = match r % 8 {
                    // An edge value: overflow on both sides of every delay.
                    0 => edges[(r >> 8) as usize % edges.len()],
                    // Late by up to ~2000 ticks.
                    1 | 2 => t.saturating_sub((r >> 8) as i64 % 2_000),
                    _ => t.saturating_add((r >> 8) as i64 % 50),
                };
                let ts = Timestamp::new(t);
                fast.observe(ts);
                observe_branchy(&mut slow, ts);
                let at = format!("seed {seed} step {step} ts {t}");
                assert_eq!(fast.ring, slow.ring, "{at}");
                assert_eq!(fast.counts, slow.counts, "{at}");
                assert_eq!(
                    (fast.head, fast.len, fast.observed),
                    (slow.head, slow.len, slow.observed),
                    "{at}"
                );
                assert_eq!(
                    (fast.clock, fast.max_delay),
                    (slow.clock, slow.max_delay),
                    "{at}"
                );
            }
        }
        // Saturation, pinned: MIN behind MAX is the largest delay there is.
        let mut w = DelayWindow::new(&ladder(), 4).unwrap();
        w.observe(Timestamp::MAX);
        w.observe(Timestamp::MIN);
        assert_eq!(w.max_delay(), TickDuration::ticks(i64::MAX));
        assert_eq!(w.completeness_at(3), 0.5, "overflow rung");
    }

    #[test]
    fn a_delay_equal_to_a_rung_is_outside_it() {
        let mut w =
            DelayWindow::new(&[TickDuration::ticks(0), TickDuration::ticks(5)], 16).unwrap();
        // In order (each raises the watermark: inside every rung), then a
        // repeat of the high (delay 0) and one exactly 5 behind it.
        for t in (1..=10).chain([10, 5]) {
            w.observe(Timestamp::new(t));
        }
        assert_eq!(w.completeness_at(0), 10.0 / 12.0);
        assert_eq!(w.completeness_at(1), 11.0 / 12.0);
    }

    #[test]
    fn window_evicts_old_observations() {
        let mut w = DelayWindow::new(&ladder(), 16).unwrap();
        // 16 very late events, then 64 in-order ones: the window forgets.
        for i in 0..16i64 {
            w.observe(Timestamp::new(i * 2));
            w.observe(Timestamp::new(i * 2 - 1000));
        }
        assert!(w.completeness_at(2) < 0.9);
        for i in 100..164i64 {
            w.observe(Timestamp::new(i));
        }
        assert!((w.completeness_at(0) - 1.0).abs() < 1e-9);
        assert_eq!(w.len(), 16);
    }

    #[test]
    fn selector_converges_down_on_orderly_stream() {
        let cfg = AdaptiveConfig::new()
            .with_ladder(ladder())
            .with_quality(0.99)
            .with_window(256)
            .with_hold(2);
        let mut sel = AdaptiveLatency::new(cfg).unwrap();
        assert_eq!(sel.current(), TickDuration::ticks(512), "starts patient");
        for i in 0..4096i64 {
            sel.observe(Timestamp::new(i));
        }
        assert_eq!(sel.rung(), 0, "in-order stream settles on the bottom rung");
        assert!(sel.switches() >= 3);
    }

    #[test]
    fn selector_steps_up_on_disorder_burst() {
        let cfg = AdaptiveConfig::new()
            .with_ladder(ladder())
            .with_quality(0.95)
            .with_window(256)
            .with_hold(2);
        let mut sel = AdaptiveLatency::new(cfg).unwrap();
        for i in 0..2048i64 {
            sel.observe(Timestamp::new(i));
        }
        assert_eq!(sel.rung(), 0);
        // Burst: half the events 100 ticks late — rung 0 (l=0) and rung 1
        // (l=8) both fail a 0.95 target; rung 2 (l=64) fails too; only 512
        // covers it.
        for i in 2048..4096i64 {
            let t = if i % 2 == 0 { i } else { i - 100 };
            sel.observe(Timestamp::new(t));
        }
        assert_eq!(sel.rung(), 3, "burst drives selection to a patient rung");
    }

    #[test]
    fn hysteresis_requires_hold_before_stepping_down() {
        let cfg = AdaptiveConfig::new()
            .with_ladder(ladder())
            .with_quality(0.99)
            .with_window(64)
            .with_hold(1000);
        let mut sel = AdaptiveLatency::new(cfg).unwrap();
        for i in 0..512i64 {
            sel.observe(Timestamp::new(i));
        }
        assert_eq!(sel.rung(), 3, "huge hold pins the starting rung");
        assert_eq!(sel.switches(), 0);
    }

    #[test]
    fn ladder_validation_is_typed() {
        let bad = AdaptiveConfig::new().with_ladder(vec![]);
        let err = bad.validate().unwrap_err();
        assert_eq!(err.field, "ladder");
        let bad =
            AdaptiveConfig::new().with_ladder(vec![TickDuration::ticks(5), TickDuration::ticks(5)]);
        assert!(bad.validate().unwrap_err().reason.contains("increasing"));
        let bad = AdaptiveConfig::new().with_quality(0.0);
        assert_eq!(bad.validate().unwrap_err().field, "quality");
    }

    #[test]
    fn window_is_bounded_before_anything_is_allocated() {
        use impatience_core::MAX_ADAPTIVE_WINDOW;
        let largest = AdaptiveConfig::new().with_window(MAX_ADAPTIVE_WINDOW);
        assert!(largest.validate().is_ok());
        let huge = AdaptiveConfig::new().with_window(1_000_000_000_000);
        assert_eq!(huge.validate().unwrap_err().field, "window");
        let refused = AdaptiveLatency::new(huge);
        assert!(matches!(refused, Err(e) if e.field == "window"));
    }

    #[test]
    fn gauges_mirror_decisions() {
        use impatience_core::metrics::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let gauges = AdaptiveGauges {
            latency: registry.gauge("adaptive.latency"),
            rung: registry.gauge("adaptive.rung"),
            completeness_ppm: registry.gauge("adaptive.completeness_ppm"),
            max_delay: registry.gauge("adaptive.max_delay"),
            switches: registry.counter("adaptive.switches"),
        };
        let cfg = AdaptiveConfig::new()
            .with_ladder(ladder())
            .with_quality(0.99)
            .with_window(64)
            .with_hold(1);
        let mut sel = AdaptiveLatency::new(cfg).unwrap();
        sel.bind_gauges(gauges);
        for i in 0..1024i64 {
            sel.observe(Timestamp::new(i));
        }
        let snap = registry.snapshot();
        let json = snap.to_json().to_string();
        assert!(json.contains("adaptive.latency"), "{json}");
        assert!(json.contains("adaptive.switches"), "{json}");
        assert_eq!(sel.rung(), 0);
    }
}
