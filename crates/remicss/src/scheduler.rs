//! Per-symbol `(k, M)` selection strategies (§V).

use std::sync::Arc;

use mcss_base::SimTime;
use mcss_core::ShareSchedule;
use rand::rngs::StdRng;
use rand::RngExt as _;

/// A snapshot of sender-side channel state handed to the scheduler: the
/// serialization backlog of every channel and the readiness threshold.
///
/// This is the simulator's stand-in for an `epoll` readiness set.
#[derive(Debug, Clone, Copy)]
pub struct ChannelState<'a> {
    backlogs: &'a [SimTime],
    threshold: SimTime,
}

impl<'a> ChannelState<'a> {
    /// Builds a snapshot from per-channel backlogs.
    #[must_use]
    pub fn new(backlogs: &'a [SimTime], threshold: SimTime) -> Self {
        ChannelState {
            backlogs,
            threshold,
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.backlogs.len()
    }

    /// Whether there are no channels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.backlogs.is_empty()
    }

    /// Backlog of channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn backlog(&self, i: usize) -> SimTime {
        self.backlogs[i]
    }

    /// Whether channel `i` is ready for writing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn is_ready(&self, i: usize) -> bool {
        self.backlogs[i] <= self.threshold
    }

    /// Number of ready channels.
    #[must_use]
    pub fn ready_count(&self) -> usize {
        (0..self.len()).filter(|&i| self.is_ready(i)).count()
    }
}

/// The scheduler's decision for one symbol: threshold `k` and the
/// channels to carry the `m = channels.len()` shares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Choice {
    /// The threshold for this symbol.
    pub k: u8,
    /// The channels carrying shares, one share each.
    pub channels: Vec<usize>,
}

/// A per-symbol `(k, M)` selection strategy.
pub trait Scheduler {
    /// Chooses parameters for the next symbol.
    fn choose(&mut self, channels: &ChannelState<'_>, rng: &mut StdRng) -> Choice {
        let mut choice = Choice::default();
        self.choose_into(channels, rng, &mut choice);
        choice
    }

    /// Chooses parameters for the next symbol, reusing `choice`'s
    /// buffers (the hot path: no allocation once `choice.channels` has
    /// grown to the channel count).
    fn choose_into(&mut self, channels: &ChannelState<'_>, rng: &mut StdRng, choice: &mut Choice);
}

/// The session's scheduler: one of the concrete strategies, dispatched
/// by value (no boxing; replacing it — as the adaptive controller does —
/// allocates nothing).
#[derive(Debug, Clone)]
pub enum SessionScheduler {
    /// The paper's dynamic share schedule.
    Dynamic(DynamicScheduler),
    /// An explicit (e.g. LP-produced) schedule.
    Static(StaticScheduler),
    /// The round-robin ablation baseline.
    RoundRobin(RoundRobinScheduler),
}

impl Scheduler for SessionScheduler {
    fn choose_into(&mut self, channels: &ChannelState<'_>, rng: &mut StdRng, choice: &mut Choice) {
        let _span = mcss_obs::span!("remicss.schedule");
        match self {
            SessionScheduler::Dynamic(s) => s.choose_into(channels, rng, choice),
            SessionScheduler::Static(s) => s.choose_into(channels, rng, choice),
            SessionScheduler::RoundRobin(s) => s.choose_into(channels, rng, choice),
        }
    }
}

/// Draws integer `(k, m)` pairs whose means are the fractional protocol
/// parameters `(κ, μ)`, with `k ≤ m` guaranteed per draw.
///
/// Uses the same coupling as the Theorem 5 construction: when `⌊κ⌋ =
/// ⌊μ⌋` the high-`k` draw is coupled to the high-`m` draw so the invalid
/// corner `(⌈κ⌉, ⌊μ⌋)` has probability zero.
///
/// # Examples
///
/// ```
/// use mcss_remicss::scheduler::ParamSampler;
/// use rand::SeedableRng;
///
/// let s = ParamSampler::new(1.5, 3.25, 5).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (k, m) = s.draw(&mut rng);
/// assert!(k as usize <= m && m <= 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamSampler {
    kappa: f64,
    mu: f64,
}

impl ParamSampler {
    /// Creates a sampler, validating `1 ≤ κ ≤ μ ≤ n`.
    ///
    /// # Errors
    ///
    /// [`mcss_core::ModelError::InvalidParameters`] on violation.
    pub fn new(kappa: f64, mu: f64, n: usize) -> Result<Self, mcss_core::ModelError> {
        mcss_core::check_params(kappa, mu, Some(n))?;
        Ok(ParamSampler { kappa, mu })
    }

    /// Draws one `(k, m)` pair.
    #[must_use]
    pub fn draw(&self, rng: &mut StdRng) -> (u8, usize) {
        let kf = self.kappa.floor();
        let a = self.kappa - kf;
        let mf = self.mu.floor();
        let b = self.mu - mf;
        let u: f64 = rng.random_range(0.0..1.0);
        if kf as i64 == mf as i64 {
            // Coupled draw: one uniform decides both (a ≤ b here).
            let k_hi = u < a;
            let m_hi = u < b;
            (
                (kf as u8) + u8::from(k_hi),
                (mf as usize) + usize::from(m_hi),
            )
        } else {
            let v: f64 = rng.random_range(0.0..1.0);
            (
                (kf as u8) + u8::from(u < a),
                (mf as usize) + usize::from(v < b),
            )
        }
    }
}

/// The paper's *dynamic share schedule* (§V): draw `(k, m)`, then send on
/// the `m` channels that are "first ready for writing" — implemented as
/// the `m` channels with the smallest serialization backlog, with
/// readiness ties broken by channel index (like `epoll` returning fds in
/// registration order).
#[derive(Debug, Clone)]
pub struct DynamicScheduler {
    sampler: ParamSampler,
}

impl DynamicScheduler {
    /// Creates the scheduler for means `(κ, μ)` over `n` channels.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from [`ParamSampler::new`].
    pub fn new(kappa: f64, mu: f64, n: usize) -> Result<Self, mcss_core::ModelError> {
        Ok(DynamicScheduler {
            sampler: ParamSampler::new(kappa, mu, n)?,
        })
    }
}

impl Scheduler for DynamicScheduler {
    fn choose_into(&mut self, channels: &ChannelState<'_>, rng: &mut StdRng, choice: &mut Choice) {
        let (k, m) = self.sampler.draw(rng);
        // Ready channels first, then busy ones, each by backlog and ties
        // by index. The sort key is unique (it ends in the index), so the
        // unstable sort is deterministic. Backlogs already in index order
        // (all equal, as when no host reports readiness) put the ready
        // ones first too, so the sort would leave `0..n` as it is.
        choice.k = k;
        choice.channels.clear();
        choice.channels.extend(0..channels.len());
        if !channels.backlogs.is_sorted() {
            choice.channels.sort_unstable_by_key(|&i| {
                (!channels.is_ready(i), channels.backlog(i).as_nanos(), i)
            });
        }
        choice.channels.truncate(m);
    }
}

/// Samples `(k, M)` from an explicit [`ShareSchedule`] — typically one
/// produced by the §IV-B or §IV-D linear programs. Ignores readiness:
/// the schedule already encodes the per-channel utilization.
#[derive(Debug, Clone)]
pub struct StaticScheduler {
    schedule: Arc<ShareSchedule>,
}

impl StaticScheduler {
    /// Wraps a share schedule. Takes an `Arc` (or converts into one) so
    /// the sender- and receiver-side schedulers of a session share one
    /// schedule instead of deep-cloning it.
    #[must_use]
    pub fn new(schedule: impl Into<Arc<ShareSchedule>>) -> Self {
        StaticScheduler {
            schedule: schedule.into(),
        }
    }

    /// The wrapped schedule.
    #[must_use]
    pub fn schedule(&self) -> &ShareSchedule {
        &self.schedule
    }
}

impl Scheduler for StaticScheduler {
    fn choose_into(&mut self, _channels: &ChannelState<'_>, rng: &mut StdRng, choice: &mut Choice) {
        let entry = self.schedule.sample(rng);
        choice.k = entry.k();
        choice.channels.clear();
        choice.channels.extend(entry.subset().iter());
    }
}

/// Naive baseline: fixed `(k, m)` from rounding `(κ, μ)` per draw, with
/// the channel subset rotating round-robin regardless of channel rates
/// or readiness.
#[derive(Debug, Clone)]
pub struct RoundRobinScheduler {
    sampler: ParamSampler,
    offset: usize,
}

impl RoundRobinScheduler {
    /// Creates the baseline for means `(κ, μ)` over `n` channels.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from [`ParamSampler::new`].
    pub fn new(kappa: f64, mu: f64, n: usize) -> Result<Self, mcss_core::ModelError> {
        Ok(RoundRobinScheduler {
            sampler: ParamSampler::new(kappa, mu, n)?,
            offset: 0,
        })
    }
}

impl Scheduler for RoundRobinScheduler {
    fn choose_into(&mut self, channels: &ChannelState<'_>, rng: &mut StdRng, choice: &mut Choice) {
        let (k, m) = self.sampler.draw(rng);
        let n = channels.len();
        choice.k = k;
        choice.channels.clear();
        choice
            .channels
            .extend((0..m).map(|j| (self.offset + j) % n));
        self.offset = (self.offset + m) % n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xabcd)
    }

    fn state(backlogs_us: &[u64]) -> Vec<SimTime> {
        backlogs_us
            .iter()
            .map(|&b| SimTime::from_micros(b))
            .collect()
    }

    #[test]
    fn channel_state_readiness() {
        let b = state(&[0, 100, 5000]);
        let s = ChannelState::new(&b, SimTime::from_micros(100));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.is_ready(0) && s.is_ready(1) && !s.is_ready(2));
        assert_eq!(s.ready_count(), 2);
        assert_eq!(s.backlog(2), SimTime::from_millis(5));
    }

    #[test]
    fn sampler_validates() {
        assert!(ParamSampler::new(1.0, 1.0, 5).is_ok());
        assert!(ParamSampler::new(0.9, 1.0, 5).is_err());
        assert!(ParamSampler::new(2.0, 1.5, 5).is_err());
        assert!(ParamSampler::new(1.0, 5.5, 5).is_err());
    }

    #[test]
    fn sampler_means_converge() {
        let mut r = rng();
        for &(kappa, mu) in &[(1.0, 1.0), (1.5, 3.25), (2.3, 2.6), (4.9, 5.0), (3.0, 3.0)] {
            let s = ParamSampler::new(kappa, mu, 5).unwrap();
            let trials = 60_000;
            let (mut ks, mut ms) = (0u64, 0u64);
            for _ in 0..trials {
                let (k, m) = s.draw(&mut r);
                assert!(k >= 1 && k as usize <= m, "invalid draw ({k}, {m})");
                assert!(m <= 5);
                ks += u64::from(k);
                ms += m as u64;
            }
            let mean_k = ks as f64 / trials as f64;
            let mean_m = ms as f64 / trials as f64;
            assert!((mean_k - kappa).abs() < 0.02, "kappa {kappa}: {mean_k}");
            assert!((mean_m - mu).abs() < 0.02, "mu {mu}: {mean_m}");
        }
    }

    #[test]
    fn sampler_same_cell_never_draws_invalid_corner() {
        // κ = 2.9, μ = 2.95: without coupling, (3, 2) would occur often.
        let s = ParamSampler::new(2.9, 2.95, 5).unwrap();
        let mut r = rng();
        for _ in 0..20_000 {
            let (k, m) = s.draw(&mut r);
            assert!(k as usize <= m);
        }
    }

    #[test]
    fn dynamic_prefers_ready_then_least_backlogged() {
        let mut sched = DynamicScheduler::new(3.0, 3.0, 5).unwrap();
        let b = state(&[5000, 0, 80, 9000, 40]);
        let s = ChannelState::new(&b, SimTime::from_micros(100));
        let c = sched.choose(&s, &mut rng());
        assert_eq!(c.k, 3);
        // Ready channels by backlog: 1 (0µs), 4 (40µs), 2 (80µs).
        assert_eq!(c.channels, vec![1, 4, 2]);
    }

    #[test]
    fn dynamic_falls_back_to_busy_channels() {
        let mut sched = DynamicScheduler::new(2.0, 4.0, 4).unwrap();
        let b = state(&[900, 500, 700, 300]);
        let s = ChannelState::new(&b, SimTime::ZERO); // nothing ready
        let c = sched.choose(&s, &mut rng());
        assert_eq!(c.channels, vec![3, 1, 2, 0]);
    }

    /// The keyed sort the scheduler would make, for comparison.
    fn sorted_by_key(s: &ChannelState<'_>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..s.len()).collect();
        order.sort_by_key(|&i| (!s.is_ready(i), s.backlog(i), i));
        order
    }

    /// Skipping the sort for backlogs in index order picks what the
    /// keyed sort picks: over random backlogs from a few values (so ties
    /// abound) on both sides of the threshold, sorted or not, and every
    /// draw of `m`.
    #[test]
    fn dynamic_without_a_sort_matches_the_keyed_sort() {
        let mut r = rng();
        let threshold = SimTime::from_micros(100);
        let mut sorted_cases = 0;
        for case in 0..20_000 {
            let n = r.random_range(1..=8usize);
            let values = [0, 50, 100, 101, 5_000];
            let mut backlogs: Vec<SimTime> = (0..n)
                .map(|_| SimTime::from_micros(values[r.random_range(0..values.len())]))
                .collect();
            if case % 2 == 0 {
                backlogs.sort();
            }
            sorted_cases += usize::from(backlogs.is_sorted());
            let s = ChannelState::new(&backlogs, threshold);
            let expect = sorted_by_key(&s);
            let mu = r.random_range(1..=n) as f64;
            let mut sched = DynamicScheduler::new(1.0, mu, n).unwrap();
            let c = sched.choose(&s, &mut r);
            assert_eq!(
                c.channels,
                expect[..c.channels.len()],
                "{backlogs:?}, m {mu}"
            );
        }
        assert!(
            sorted_cases > 10_000,
            "the fast path ran {sorted_cases} times"
        );
    }

    #[test]
    fn static_scheduler_follows_schedule() {
        let schedule = ShareSchedule::max_privacy(4);
        let mut sched = StaticScheduler::new(schedule);
        assert_eq!(sched.schedule().kappa(), 4.0);
        let b = state(&[0, 0, 0, 0]);
        let s = ChannelState::new(&b, SimTime::ZERO);
        let c = sched.choose(&s, &mut rng());
        assert_eq!(c.k, 4);
        assert_eq!(c.channels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_rotates() {
        let mut sched = RoundRobinScheduler::new(2.0, 2.0, 5).unwrap();
        let b = state(&[0; 5]);
        let s = ChannelState::new(&b, SimTime::ZERO);
        let mut r = rng();
        let c1 = sched.choose(&s, &mut r);
        let c2 = sched.choose(&s, &mut r);
        let c3 = sched.choose(&s, &mut r);
        assert_eq!(c1.channels, vec![0, 1]);
        assert_eq!(c2.channels, vec![2, 3]);
        assert_eq!(c3.channels, vec![4, 0]);
    }
}
