//! Quickstart: secret sharing, the channel model, and optimal schedules
//! in one tour.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p mcss --example quickstart
//! ```

use mcss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Shamir secret sharing -------------------------------------
    // Split a secret into 5 shares, any 3 of which reconstruct it; an
    // adversary holding 2 learns nothing (information-theoretically), as
    // long as the coefficients are unpredictable to it. They come from a
    // share stream, AES-128 in counter mode under a fresh secret key,
    // never from a seeded generator such as `rand::rng()`.
    let secret = b"meet at the old bridge, midnight";
    let params = Params::new(3, 5)?;
    let key = ShareKey::generate();
    let shares = split(secret, params, &mut key.stream(0, false, 0))?;
    println!(
        "split {} bytes into {} shares (threshold 3)",
        secret.len(),
        shares.len()
    );

    // Lose two shares and reconstruct from the remaining three.
    let recovered = reconstruct(&shares[2..])?;
    assert_eq!(recovered, secret);
    println!(
        "reconstructed from shares 3..5: {:?}",
        String::from_utf8_lossy(&recovered)
    );

    // --- 2. The channel model ------------------------------------------
    // The paper's Lossy testbed setup: five channels at 5..100 Mbit/s
    // with 0.5-3% loss. Each channel also carries an eavesdropping risk.
    let channels = setups::lossy();
    println!("\nchannel set ({} channels):", channels.len());
    for (i, ch) in channels.iter().enumerate() {
        println!("  channel {i}: {ch}");
    }

    // Fully optimized corner values (closed forms of sections IV-B/C):
    let env = optimal::envelope(&channels);
    println!("\noptimality envelope:");
    println!(
        "  best overall risk  Z_C = {:.3e} (kappa = mu = n)",
        env.risk
    );
    println!(
        "  best overall loss  L_C = {:.3e} (kappa = 1, mu = n)",
        env.loss
    );
    println!(
        "  best overall delay D_C = {:.3e} (kappa = 1, mu = n)",
        env.delay
    );
    println!(
        "  best overall rate  R_C = {:.1} shares/unit (kappa = mu = 1)",
        env.rate
    );

    // --- 3. Tradeoffs: optimal rate at a chosen multiplicity -----------
    let mu = 2.5;
    let rc = optimal::optimal_rate(&channels, mu)?;
    println!("\nat mu = {mu}: optimal rate {rc:.2} symbols/unit (Theorem 4)");
    println!(
        "full utilization possible up to mu = {:.3} (Theorem 2)",
        optimal::full_utilization_mu(&channels)
    );

    // --- 4. An optimal schedule that sustains that rate -----------------
    // The section IV-D linear program: minimize risk at (kappa, mu)
    // while transmitting at the optimal rate.
    let kappa = 2.0;
    let schedule =
        lp_schedule::optimal_schedule_at_max_rate(&channels, kappa, mu, Objective::Privacy)?;
    println!("\nprivacy-optimal max-rate schedule at kappa={kappa}, mu={mu}:");
    print!("{schedule}");
    println!(
        "schedule risk Z(p) = {:.4}, loss L(p) = {:.3e}, sustains {:.2} symbols/unit",
        schedule.risk(&channels),
        schedule.loss(&channels),
        schedule.max_symbol_rate(&channels),
    );

    Ok(())
}
