//! The privacy/performance model for multichannel secret sharing
//! protocols from Pohly & McDaniel, *Modeling Privacy and Tradeoffs in
//! Multichannel Secret Sharing Protocols* (DSN 2016).
//!
//! A sender and receiver are connected by a set `C` of disjoint channels;
//! channel `i` is described by the quadruple `(zᵢ, lᵢ, dᵢ, rᵢ)` — the
//! probability an adversary observes a share sent on it, the probability
//! the share is lost, its one-way delay, and its rate in shares per unit
//! time. The protocol splits each source symbol into `m` Shamir shares
//! with threshold `k` and sends one share per channel of a subset
//! `M ⊆ C`, `|M| = m`. A *share schedule* `p(k, M)` randomizes those
//! choices per symbol; its means `κ` (threshold) and `μ` (multiplicity)
//! are the protocol's fractional tuning knobs.
//!
//! This crate implements, exactly as in the paper:
//!
//! * the per-subset formulas `z(k,M)`, `l(k,M)`, `d(k,M)` (§IV-A),
//! * schedule-level expectations `Z(p)`, `L(p)`, `D(p)`,
//! * closed-form full optima `Z_C`, `L_C`, `D_C`, `R_C` (§IV-B, §IV-C),
//! * Theorems 1–4 on the optimal multichannel rate for a given `μ`,
//! * the §IV-B and §IV-D linear programs producing optimal schedules at
//!   fixed `(κ, μ)`, optionally while sustaining the maximum rate, and
//! * §IV-E limited schedules compatible with the MICSS fixed-`k` threat
//!   model, including the Theorem 5 construction,
//! * and, beyond the paper's formulas, the [`adversary`] module: joint
//!   (correlated / fixed-set) tap models that quantify §III-B's argument
//!   for why disjoint channels are the optimal case.
//!
//! # Examples
//!
//! Compute the optimal rate and a privacy-optimal schedule that sustains
//! it, for the paper's *Diverse* channel setup:
//!
//! ```
//! use mcss_core::{setups, optimal, lp_schedule::{self, Objective}};
//!
//! # fn main() -> Result<(), mcss_core::ModelError> {
//! let channels = setups::diverse();
//! let mu = 2.5;
//! let kappa = 1.75;
//!
//! // Theorem 4: the best achievable rate at μ = 2.5.
//! let rc = optimal::optimal_rate(&channels, mu)?;
//!
//! // §IV-D: the most private schedule that still transmits at R_C.
//! let sched = lp_schedule::optimal_schedule_at_max_rate(
//!     &channels, kappa, mu, Objective::Privacy)?;
//! assert!((sched.mu() - mu).abs() < 1e-6);
//! assert!(sched.risk(&channels) <= 1.0);
//! assert!(rc > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod adversary;
mod cache;
mod channel;
mod error;
pub mod lp_schedule;
pub mod micss;
pub mod optimal;
pub mod pareto;
mod schedule;
pub mod setups;
pub mod subset;

pub use channel::{Channel, ChannelSet, MAX_CHANNELS};
pub use error::{check_params, ChannelError, ModelError};
pub use schedule::{ScheduleBuilder, ScheduleEntry, ShareSchedule};
pub use subset::Subset;
