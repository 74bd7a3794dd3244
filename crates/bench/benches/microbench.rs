//! Criterion microbenchmarks: the computational primitives underneath
//! the protocol and the model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mcss::gf256::{poly, Gf256, Poly};
use mcss::prelude::*;
use rand::SeedableRng;

fn bench_gf256(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf256");
    let a = Gf256::new(0x57);
    let b = Gf256::new(0x83);
    g.bench_function("mul", |bch| bch.iter(|| black_box(a) * black_box(b)));
    g.bench_function("inv", |bch| bch.iter(|| black_box(a).inv()));
    g.bench_function("pow", |bch| bch.iter(|| black_box(a).pow(black_box(200))));
    let p = Poly::new((1..=16).map(Gf256::new).collect());
    g.bench_function("poly_eval_deg15", |bch| {
        bch.iter(|| p.eval(black_box(Gf256::new(77))))
    });
    let pts: Vec<(Gf256, Gf256)> = (1..=5)
        .map(|x| (Gf256::new(x), Gf256::new(x.wrapping_mul(17))))
        .collect();
    g.bench_function("interpolate_at_zero_k5", |bch| {
        bch.iter(|| poly::interpolate_at_zero(black_box(&pts)))
    });
    g.finish();
}

fn bench_shamir(c: &mut Criterion) {
    let mut g = c.benchmark_group("shamir");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let payload = vec![0xa5u8; 1250];
    for (k, m) in [(1u8, 1u8), (2, 3), (3, 5), (5, 5)] {
        let params = Params::new(k, m).unwrap();
        g.throughput(Throughput::Bytes(payload.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("split_1250B", format!("{k}of{m}")),
            &params,
            |bch, &params| bch.iter(|| split(black_box(&payload), params, &mut rng)),
        );
        let shares = split(&payload, params, &mut rng).unwrap();
        g.bench_with_input(
            BenchmarkId::new("reconstruct_1250B", format!("{k}of{m}")),
            &shares,
            |bch, shares| bch.iter(|| reconstruct(black_box(shares))),
        );
    }
    g.finish();
}

fn bench_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("model");
    let channels = setups::lossy();
    let full = Subset::full(5);
    g.bench_function("subset_risk_k3_m5", |bch| {
        bch.iter(|| subset::risk(black_box(&channels), 3, full))
    });
    g.bench_function("subset_loss_k3_m5", |bch| {
        bch.iter(|| subset::loss(black_box(&channels), 3, full))
    });
    let delayed = setups::delayed();
    g.bench_function("subset_delay_k3_m5", |bch| {
        bch.iter(|| subset::delay(black_box(&delayed), 3, full))
    });
    g.bench_function("theorem4_optimal_rate_n5", |bch| {
        bch.iter(|| optimal::optimal_rate(black_box(&channels), black_box(3.3)))
    });
    g.bench_function("waterfill_optimal_rate_n5", |bch| {
        bch.iter(|| optimal::optimal_rate_waterfill(black_box(&channels), black_box(3.3)))
    });
    let eight = ChannelSet::new(
        (1..=8)
            .map(|i| Channel::new(0.1, 0.01, 1e-3, f64::from(i) * 10.0).unwrap())
            .collect(),
    )
    .unwrap();
    g.bench_function("theorem4_optimal_rate_n8", |bch| {
        bch.iter(|| optimal::optimal_rate(black_box(&eight), black_box(4.5)))
    });
    g.finish();
}

fn bench_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp");
    g.sample_size(20);
    let channels = setups::lossy();
    g.bench_function("iv_b_schedule_n5", |bch| {
        bch.iter(|| lp_schedule::optimal_schedule(black_box(&channels), 2.0, 3.4, Objective::Loss))
    });
    g.bench_function("iv_d_schedule_n5", |bch| {
        bch.iter(|| {
            lp_schedule::optimal_schedule_at_max_rate(
                black_box(&channels),
                2.0,
                3.4,
                Objective::Privacy,
            )
        })
    });
    g.bench_function("theorem5_construction", |bch| {
        bch.iter(|| micss::theorem5_schedule(5, black_box(2.3), black_box(3.7)))
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    use mcss::model::adversary::JointRisk;
    use mcss::model::pareto;
    let mut g = c.benchmark_group("extensions");
    g.sample_size(20);
    let channels = setups::diverse_with_risk(&[0.3, 0.1, 0.4, 0.2, 0.5]);
    g.bench_function("joint_risk_independent_n5", |bch| {
        bch.iter(|| JointRisk::independent(black_box(&channels)))
    });
    let joint = JointRisk::independent(&channels);
    let schedule = ShareSchedule::max_privacy(5);
    g.bench_function("joint_schedule_risk", |bch| {
        bch.iter(|| joint.schedule_risk(black_box(&schedule)))
    });
    g.bench_function("pareto_point", |bch| {
        bch.iter(|| pareto::point(black_box(&channels), 2.0, 3.5))
    });
    g.finish();
}

fn bench_slices(c: &mut Criterion) {
    use mcss::gf256::slice;
    use mcss::gf256::Gf256;
    let mut g = c.benchmark_group("gf256_slice");
    let src = vec![0xabu8; 4096];
    let mut dst = vec![0x11u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("scale_add_assign_4k", |bch| {
        bch.iter(|| slice::scale_add_assign(black_box(&mut dst), black_box(&src), Gf256::new(0x53)))
    });
    g.bench_function("add_scaled_assign_4k", |bch| {
        bch.iter(|| {
            slice::add_scaled_assign(black_box(&mut dst), black_box(&src), Gf256::new(0x53))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gf256,
    bench_shamir,
    bench_model,
    bench_lp,
    bench_extensions,
    bench_slices
);
criterion_main!(benches);
