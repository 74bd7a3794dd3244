//! Criterion benchmarks for the simulator and the end-to-end protocol:
//! how many simulated events and protocol symbols the harness itself can
//! process per wall-clock second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mcss::netsim::{
    Application, Context, Endpoint, Frame, LinkConfig, NetworkBuilder, SimTime, Simulator,
};
use mcss::prelude::*;
use mcss::remicss::wire::{put_share_header_for, ShareRef};

/// Minimal app: a timer-driven blaster on one channel.
struct Blaster {
    frames: u64,
}

impl Application for Blaster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimTime::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: u64) {
        if self.frames == 0 {
            return;
        }
        self.frames -= 1;
        let _ = ctx.send(0, Endpoint::A, Frame::new(vec![0u8; 100]));
        let next = ctx.now() + SimTime::from_micros(1);
        ctx.set_timer(next, 0);
    }
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim");
    let frames = 10_000u64;
    g.throughput(Throughput::Elements(frames));
    g.bench_function("deliver_10k_frames", |bch| {
        bch.iter(|| {
            let mut b = NetworkBuilder::new();
            b.channel(LinkConfig::new(1e12));
            let mut sim = Simulator::new(b.build(), Blaster { frames }, 1);
            sim.run_to_completion();
            black_box(sim.network().channel(0).forward().stats().delivered_frames)
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let payload = vec![0u8; 1250];
    let mut encoded = Vec::new();
    let encode = |buf: &mut Vec<u8>| {
        buf.clear();
        put_share_header_for(buf, CodecId::Shamir, 42, 3, 5, 2, 123, payload.len()).unwrap();
        buf.extend_from_slice(&payload);
    };
    encode(&mut encoded);
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    let mut scratch = Vec::new();
    g.bench_function("encode_1250B", |bch| {
        bch.iter(|| encode(black_box(&mut scratch)))
    });
    g.bench_function("decode_1250B", |bch| {
        bch.iter(|| ShareRef::decode(black_box(&encoded)).map(|s| s.seq()))
    });
    g.finish();
}

fn bench_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");
    g.sample_size(10);
    for (kappa, mu) in [(1.0, 1.0), (2.0, 3.0), (5.0, 5.0)] {
        g.bench_with_input(
            BenchmarkId::new("session_100ms_diverse", format!("k{kappa}_m{mu}")),
            &(kappa, mu),
            |bch, &(kappa, mu)| {
                bch.iter(|| {
                    let channels = setups::diverse();
                    let config = ProtocolConfig::new(kappa, mu).unwrap();
                    let offered = testbed::optimal_symbol_rate(&channels, &config).unwrap();
                    let net = testbed::network_for(&channels, &config);
                    let session = Session::new(
                        config,
                        channels.len(),
                        Workload::cbr(offered, SimTime::from_millis(100)),
                    )
                    .unwrap();
                    let mut sim = Simulator::new(net, session, 7);
                    sim.run_until(SimTime::from_millis(300));
                    black_box(sim.app().report(SimTime::from_millis(100)))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_simulator, bench_wire, bench_protocol);
criterion_main!(benches);
