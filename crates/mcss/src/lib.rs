//! Multichannel secret sharing: model, optimality results, and the
//! ReMICSS reference protocol — a Rust reproduction of Pohly & McDaniel,
//! *Modeling Privacy and Tradeoffs in Multichannel Secret Sharing
//! Protocols* (DSN 2016).
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`gf256`] | `mcss-gf256` | GF(2⁸) arithmetic and polynomials |
//! | [`shamir`] | `mcss-shamir` | Shamir threshold secret sharing |
//! | [`lp`] | `mcss-lp` | dense two-phase simplex solver |
//! | [`model`] | `mcss-core` | channels, subset formulas, schedules, Theorems 1–5, LP schedules |
//! | [`netsim`] | `mcss-netsim` | deterministic discrete-event network simulator |
//! | [`remicss`] | `mcss-remicss` | the best-effort reference protocol |
//! | [`server`] | `mcss-server` | sharded multi-session server over the sans-I/O engine |
//! | [`obs`] | `mcss-obs` | telemetry: counters, histograms, span timers, snapshots |
//!
//! Telemetry is always on (see the `mcss-obs` crate docs for the
//! overhead contract). `cargo run --example mcss-obs-dump` prints one
//! session's snapshot.
//!
//! # Examples
//!
//! Quantify a tradeoff end to end: how much privacy the Lossy setup can
//! buy at 80% of maximum rate, and what the protocol actually achieves:
//!
//! ```
//! use mcss::model::{setups, optimal, lp_schedule::{self, Objective}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let channels = setups::lossy();
//! let mu = 2.0;
//! let rc = optimal::optimal_rate(&channels, mu)?; // shares/unit time
//! let schedule = lp_schedule::optimal_schedule_at_max_rate(
//!     &channels, 1.5, mu, Objective::Privacy)?;
//! println!("rate {rc:.1}, risk {:.4}", schedule.risk(&channels));
//! # Ok(())
//! # }
//! ```

pub use mcss_codec as codec;
pub use mcss_core as model;
pub use mcss_gf256 as gf256;
pub use mcss_lp as lp;
pub use mcss_netsim as netsim;
pub use mcss_obs as obs;
pub use mcss_remicss as remicss;
pub use mcss_server as server;
pub use mcss_shamir as shamir;

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use mcss_codec::{CodecId, ShareKey};
    pub use mcss_core::{
        lp_schedule::{self, Objective},
        micss, optimal, setups, subset, Channel, ChannelSet, ModelError, ScheduleBuilder,
        ScheduleEntry, ShareSchedule, Subset,
    };
    pub use mcss_netsim::{SimTime, Simulator};
    pub use mcss_obs::{global_snapshot, MetricsSnapshot};
    pub use mcss_remicss::{
        config::{ProtocolConfig, SchedulerKind},
        session::{Session, SessionReport, Workload},
        testbed,
    };
    pub use mcss_shamir::{reconstruct, split, Params, Share};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let channels = setups::diverse();
        assert_eq!(channels.len(), 5);
        let _ = ShareSchedule::max_rate(&channels);
    }
}
