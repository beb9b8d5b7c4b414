//! Ubuntu One arrival-trace synthesizer (paper §5.3.1).
//!
//! The paper drives its elasticity experiments with an anonymized trace of
//! commit-request arrivals to the Ubuntu One control servers (November
//! 2013): a full week to train the predictive provisioner plus "day 8" as
//! the experiment input, with a peak of 8,514 requests per minute. The
//! trace was never published, so this module synthesizes an arrival
//! process with the properties the paper (and the measurement studies it
//! cites) attribute to Personal Cloud workloads:
//!
//! * strong diurnal seasonality — peak around noon, trough in the night;
//! * weekly structure — weekends noticeably quieter;
//! * day-to-day similarity — day 8 "closely resembles" the previous week;
//! * short-term burstiness — multiplicative noise and occasional flash
//!   spikes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Synthesizer parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Ub1Config {
    /// Peak arrival rate, requests per minute (paper: 8,514).
    pub peak_per_min: f64,
    /// Trough-to-peak ratio (nighttime floor).
    pub trough_ratio: f64,
    /// Weekend dampening factor.
    pub weekend_factor: f64,
    /// Std-dev of the multiplicative lognormal noise.
    pub noise_sigma: f64,
    /// Expected flash-crowd bursts per day.
    pub bursts_per_day: f64,
    /// Burst magnitude as a multiple of the local rate.
    pub burst_multiplier: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Ub1Config {
    fn default() -> Self {
        Ub1Config {
            peak_per_min: 8514.0,
            trough_ratio: 0.18,
            weekend_factor: 0.70,
            noise_sigma: 0.08,
            bursts_per_day: 1.5,
            burst_multiplier: 1.8,
            seed: 20131101,
        }
    }
}

/// A synthesized arrival trace: one entry per minute.
#[derive(Debug, Clone, PartialEq)]
pub struct Ub1Trace {
    /// Arrivals per minute, minute 0 = 00:00 of day 1.
    pub per_minute: Vec<f64>,
}

/// Minutes in one trace day (the unit of [`ArrivalSchedule::day`]).
pub const MINUTES_PER_DAY: usize = 24 * 60;

impl Ub1Trace {
    /// Synthesizes `days` days of arrivals.
    pub fn synthesize(config: &Ub1Config, days: usize) -> Ub1Trace {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut per_minute = Vec::with_capacity(days * MINUTES_PER_DAY);
        for day in 0..days {
            // Weekends: days 6 and 7 of each week.
            let weekly = if day % 7 >= 5 {
                config.weekend_factor
            } else {
                1.0
            };
            // A couple of burst windows per day.
            let mut bursts: Vec<(usize, usize, f64)> = Vec::new();
            let n_bursts = {
                let mut n = 0;
                let mut expect = config.bursts_per_day;
                while expect > 0.0 {
                    if expect >= 1.0 || rng.gen::<f64>() < expect {
                        n += 1;
                    }
                    expect -= 1.0;
                }
                n
            };
            for _ in 0..n_bursts {
                let start = rng.gen_range(0..MINUTES_PER_DAY);
                let len = rng.gen_range(3usize..20);
                let magnitude = 1.0 + (config.burst_multiplier - 1.0) * rng.gen::<f64>();
                bursts.push((start, start + len, magnitude));
            }
            for minute in 0..MINUTES_PER_DAY {
                let seasonal = Self::diurnal_shape(minute);
                let base = config.peak_per_min
                    * weekly
                    * (config.trough_ratio + (1.0 - config.trough_ratio) * seasonal);
                // Multiplicative lognormal noise.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let noise = (config.noise_sigma * z).exp();
                let burst = bursts
                    .iter()
                    .filter(|(s, e, _)| (*s..*e).contains(&minute))
                    .map(|(_, _, m)| *m)
                    .fold(1.0, f64::max);
                per_minute.push((base * noise * burst).max(0.0));
            }
        }
        Ub1Trace { per_minute }
    }

    /// The diurnal profile in `[0, 1]`: trough ≈ 04:00, peak ≈ 13:00
    /// (the paper: "peaks around noon ... minimum level in the middle of
    /// the night").
    fn diurnal_shape(minute_of_day: usize) -> f64 {
        let hours = minute_of_day as f64 / 60.0;
        // Shifted raised cosine peaking at 13:00.
        let phase = (hours - 13.0) / 24.0 * std::f64::consts::TAU;
        (0.5 * (1.0 + phase.cos())).powf(1.3)
    }

    /// Number of days in the trace.
    pub fn days(&self) -> usize {
        self.per_minute.len() / MINUTES_PER_DAY
    }

    /// The whole trace as an [`ArrivalSchedule`]: 1-minute slots, real
    /// time. Narrow and reshape with the builder methods —
    /// `trace.schedule().day(7).slots_of(15).compress(1440.0)` is "day 8
    /// in 15-minute slots, the day compressed to 60 wall seconds".
    pub fn schedule(&self) -> ArrivalSchedule<'_> {
        ArrivalSchedule {
            trace: self,
            start_minute: 0,
            minutes: self.per_minute.len(),
            slot_minutes: 1,
            compression: 1.0,
        }
    }
}

/// A borrowed window of a [`Ub1Trace`] viewed as a schedule of arrival
/// slots, optionally compressed in time — the single accessor the
/// simulator, the fig8 harnesses, and the live TCP replay all build on.
///
/// The schedule is a cheap `Copy` view; builder methods narrow it (a day, a
/// minute window), reshape it (slot width), or compress it (trace seconds
/// per wall second). Compression scales *rates up* as it scales durations
/// down: replaying a day in 60 wall seconds multiplies every arrival rate
/// by 1,440, which is exactly the stress the live harness wants.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSchedule<'a> {
    trace: &'a Ub1Trace,
    start_minute: usize,
    minutes: usize,
    slot_minutes: usize,
    compression: f64,
}

/// One slot yielded by [`ArrivalSchedule::iter`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSlot {
    /// Slot index within the schedule window.
    pub index: usize,
    /// Absolute trace minute at which the slot starts.
    pub trace_minute: usize,
    /// Wall-clock offset of the slot start from the window start
    /// (compressed time).
    pub start: Duration,
    /// Wall-clock length of the slot (compressed time).
    pub duration: Duration,
    /// Mean arrival rate over the slot in wall req/s — the trace rate
    /// multiplied by the compression factor.
    pub rate: f64,
    /// Mean arrival rate over the slot in trace req/s (uncompressed).
    pub trace_rate: f64,
}

impl<'a> ArrivalSchedule<'a> {
    /// Narrows the schedule to one day of the trace.
    ///
    /// # Panics
    ///
    /// Panics if the day is out of range of the current window.
    pub fn day(self, day: usize) -> Self {
        self.window(day * MINUTES_PER_DAY, MINUTES_PER_DAY)
    }

    /// Narrows the schedule to `minutes` minutes starting `offset_minutes`
    /// into the current window.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the current bounds.
    pub fn window(self, offset_minutes: usize, minutes: usize) -> Self {
        assert!(
            offset_minutes + minutes <= self.minutes,
            "window {offset_minutes}+{minutes} exceeds schedule of {} minutes",
            self.minutes
        );
        ArrivalSchedule {
            start_minute: self.start_minute + offset_minutes,
            minutes,
            ..self
        }
    }

    /// Sets the slot width (paper: 15 minutes for the predictor).
    ///
    /// # Panics
    ///
    /// Panics if `minutes` is zero.
    pub fn slots_of(self, minutes: usize) -> Self {
        assert!(minutes > 0, "slot width must be positive");
        ArrivalSchedule {
            slot_minutes: minutes,
            ..self
        }
    }

    /// Sets the time-compression factor: trace seconds per wall second
    /// (1440.0 replays a day in one minute). Rates scale up by the same
    /// factor; see [`ArrivalSlot::rate`] vs [`ArrivalSlot::trace_rate`].
    ///
    /// # Panics
    ///
    /// Panics if the factor is not finite and positive.
    pub fn compress(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "compression must be positive"
        );
        ArrivalSchedule {
            compression: factor,
            ..self
        }
    }

    /// Absolute trace minute where the window starts.
    pub fn start_minute(&self) -> usize {
        self.start_minute
    }

    /// Window length in trace minutes.
    pub fn minutes(&self) -> usize {
        self.minutes
    }

    /// The compression factor (trace seconds per wall second).
    pub fn compression(&self) -> f64 {
        self.compression
    }

    /// Arrivals per trace minute over the window (uncompressed).
    pub fn per_minute(&self) -> &'a [f64] {
        &self.trace.per_minute[self.start_minute..self.start_minute + self.minutes]
    }

    /// Wall-clock length of the whole window under compression.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.minutes as f64 * 60.0 / self.compression)
    }

    /// Iterates the slots of the window in order. A ragged final slot
    /// (window not divisible by the slot width) is yielded at its true,
    /// shorter length.
    pub fn iter(&self) -> impl Iterator<Item = ArrivalSlot> + 'a {
        let window = self.per_minute();
        let start_minute = self.start_minute;
        let slot_minutes = self.slot_minutes;
        let compression = self.compression;
        window
            .chunks(slot_minutes)
            .enumerate()
            .map(move |(index, slot)| {
                let trace_rate = slot.iter().sum::<f64>() / (slot.len() as f64 * 60.0);
                ArrivalSlot {
                    index,
                    trace_minute: start_minute + index * slot_minutes,
                    start: Duration::from_secs_f64(
                        (index * slot_minutes) as f64 * 60.0 / compression,
                    ),
                    duration: Duration::from_secs_f64(slot.len() as f64 * 60.0 / compression),
                    rate: trace_rate * compression,
                    trace_rate,
                }
            })
    }

    /// Mean trace rates (req/s) per slot.
    pub fn rates(&self) -> Vec<f64> {
        self.iter().map(|s| s.trace_rate).collect()
    }

    /// Peak arrivals per trace minute over the window (uncompressed).
    pub fn peak_per_minute(&self) -> f64 {
        self.per_minute().iter().cloned().fold(0.0, f64::max)
    }

    /// Samples Poisson arrival offsets (wall seconds from the window
    /// start) across the window with [`poisson_arrivals`] at the
    /// schedule's compression.
    pub fn poisson_arrivals(&self, seed: u64) -> Vec<f64> {
        poisson_arrivals(self.per_minute().iter().copied(), self.compression, seed)
    }
}

/// The one Poisson arrival generator of the elasticity experiments: minute
/// `m` of `rates_per_minute` contributes exponential inter-arrival gaps at
/// its per-second rate, and each trace-time offset is divided by
/// `compression` (trace seconds per wall second). The offsets at
/// compression `C` are therefore the compression-1 offsets divided by `C`,
/// bit for bit.
pub fn poisson_arrivals(
    rates_per_minute: impl IntoIterator<Item = f64>,
    compression: f64,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    for (minute, rate) in rates_per_minute.into_iter().enumerate() {
        if rate <= 0.0 {
            continue;
        }
        let per_sec = rate / 60.0;
        let start = minute as f64 * 60.0;
        let mut t = start;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / per_sec;
            if t >= start + 60.0 {
                break;
            }
            arrivals.push(t / compression);
        }
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Ub1Trace {
        Ub1Trace::synthesize(&Ub1Config::default(), 8)
    }

    #[test]
    fn eight_days_of_minutes() {
        let t = trace();
        assert_eq!(t.days(), 8);
        assert_eq!(t.per_minute.len(), 8 * 24 * 60);
    }

    #[test]
    fn peak_is_near_the_paper_number() {
        let t = trace();
        let peak = t.schedule().day(7).peak_per_minute();
        assert!(
            (6000.0..16000.0).contains(&peak),
            "day-8 peak {peak:.0} should be near 8,514 req/min"
        );
    }

    #[test]
    fn diurnal_pattern_peaks_at_midday_and_troughs_at_night() {
        let t = trace();
        let day = t.schedule().day(7).per_minute();
        let noonish: f64 = day[12 * 60..14 * 60].iter().sum::<f64>() / 120.0;
        let night: f64 = day[2 * 60..4 * 60].iter().sum::<f64>() / 120.0;
        assert!(
            noonish > 2.5 * night,
            "noon {noonish:.0} must dominate night {night:.0}"
        );
    }

    #[test]
    fn weekends_are_quieter() {
        let t = trace();
        // Days 0-4 weekdays, 5-6 weekend under our convention.
        let weekday_total: f64 = t.schedule().day(2).per_minute().iter().sum();
        let weekend_total: f64 = t.schedule().day(5).per_minute().iter().sum();
        assert!(weekend_total < 0.9 * weekday_total);
    }

    #[test]
    fn day8_resembles_previous_weekdays() {
        // Correlation of the day-8 (index 7, a weekday) profile with day 1
        // must be high — that is the property the predictive provisioner
        // exploits.
        let t = trace();
        let a = t.schedule().day(0).slots_of(15).rates();
        let b = t.schedule().day(7).slots_of(15).rates();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (ma, mb) = (mean(&a), mean(&b));
        let cov: f64 = a.iter().zip(&b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
        let corr = cov / (va.sqrt() * vb.sqrt());
        assert!(corr > 0.95, "day-8/day-1 correlation {corr:.3} too low");
    }

    #[test]
    fn slot_rates_aggregate_correctly() {
        let t = trace();
        let slots = t.schedule().day(0).slots_of(15).rates();
        assert_eq!(slots.len(), 96);
        // Rate in req/s: slot sum / (15*60).
        let manual: f64 = t.per_minute[..15].iter().sum::<f64>() / 900.0;
        assert!((slots[0] - manual).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Ub1Trace::synthesize(&Ub1Config::default(), 2);
        let b = Ub1Trace::synthesize(&Ub1Config::default(), 2);
        assert_eq!(a, b);
        let c = Ub1Trace::synthesize(
            &Ub1Config {
                seed: 1,
                ..Ub1Config::default()
            },
            2,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn rates_are_nonnegative() {
        let t = trace();
        assert!(t.per_minute.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn schedule_slots_carry_compressed_time_and_rate() {
        let t = trace();
        // Day 8 compressed 1440:1 — a day in 60 wall seconds.
        let sched = t.schedule().day(7).slots_of(15).compress(1440.0);
        let slots: Vec<ArrivalSlot> = sched.iter().collect();
        assert_eq!(slots.len(), 96);
        assert_eq!(sched.duration(), Duration::from_secs(60));
        let s0 = &slots[0];
        assert_eq!(s0.trace_minute, 7 * 24 * 60);
        assert_eq!(s0.start, Duration::ZERO);
        // 15 trace minutes / 1440 = 0.625 wall seconds per slot.
        assert!((s0.duration.as_secs_f64() - 0.625).abs() < 1e-9);
        assert!((s0.rate - s0.trace_rate * 1440.0).abs() < 1e-6);
        let s1 = &slots[1];
        assert!((s1.start.as_secs_f64() - 0.625).abs() < 1e-9);
        // Compression leaves the trace rates what `rates()` reports.
        let uncompressed = t.schedule().day(7).slots_of(15).rates();
        for (s, r) in slots.iter().zip(&uncompressed) {
            assert!((s.trace_rate - r).abs() < 1e-12);
        }
    }

    #[test]
    fn schedule_window_composes_with_day() {
        let t = trace();
        let sched = t.schedule().day(7).window(600, 120);
        assert_eq!(sched.start_minute(), 7 * 24 * 60 + 600);
        assert_eq!(sched.minutes(), 120);
        assert_eq!(sched.iter().count(), 120, "1-minute slots by default");
    }

    #[test]
    #[should_panic(expected = "exceeds schedule")]
    fn schedule_window_bounds_checked() {
        let t = trace();
        let _ = t.schedule().day(7).window(1400, 120);
    }

    #[test]
    fn schedule_poisson_arrivals_compress_consistently() {
        let t = trace();
        let real = t.schedule().day(7).window(720, 30).poisson_arrivals(99);
        let fast = t
            .schedule()
            .day(7)
            .window(720, 30)
            .compress(60.0)
            .poisson_arrivals(99);
        assert!(real.windows(2).all(|w| w[0] <= w[1]), "sorted offsets");
        let scaled: Vec<f64> = real.iter().map(|a| a / 60.0).collect();
        assert_eq!(
            fast.iter().map(|t| t.to_bits()).collect::<Vec<u64>>(),
            scaled.iter().map(|t| t.to_bits()).collect::<Vec<u64>>(),
            "compression divides every compression-1 offset by 60, bit for bit"
        );
        // ~30 minutes around midday: tens of thousands of arrivals.
        assert!(real.len() > 10_000, "got {}", real.len());
        assert!(real.iter().all(|&a| (0.0..30.0 * 60.0).contains(&a)));
    }
}
