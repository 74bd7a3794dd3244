//! The metric names of `BENCHMARK.json`, in the order they are printed.
//! `tests/contract.rs` holds this table and the JSON file to each other.

/// `(name, unit)` of every end-to-end metric; every workload reports
/// all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ns_per_symbol", "ns"),
    ("cpu_us_per_symbol", "us"),
    ("delivered_ratio", "ratio"),
    ("bytes_per_session", "B"),
    ("wire_bytes_per_symbol", "B"),
];

/// `(name, unit)` of every per-layer metric. A traced run prints all of
/// them; a layer that is not on the workload's path reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gf256.scale_add_ns_per_kib", "ns/KiB"),
    ("gf256.horner3_ns_per_kib", "ns/KiB"),
    ("gf256.xor_ns_per_kib", "ns/KiB"),
    ("gf256.bytes_per_symbol", "B"),
    ("codec.split_ns", "ns"),
    ("codec.reconstruct_ns", "ns"),
    ("wire.header_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.overhead_bytes_per_share", "B"),
    ("reassembly.accept_ns", "ns"),
    ("reassembly.accept_partial_ns", "ns"),
    ("reassembly.sweep_ns_per_evicted", "ns"),
    ("reassembly.evicted_per_symbol", "count"),
    ("reassembly.dup_or_late_per_symbol", "count"),
    ("reassembly.pool_hit_ratio", "ratio"),
    ("reassembly.buffered_bytes_peak", "B"),
    ("scheduler.draw_ns", "ns"),
    ("engine.symbol_ns", "ns"),
    ("engine.symbol_self_ns", "ns"),
    ("engine.frame_ns", "ns"),
    ("engine.frame_self_ns", "ns"),
    ("engine.timer_ns", "ns"),
    ("engine.actions_per_symbol", "count"),
    ("engine.bytes_per_session", "B"),
    ("shard.offer_ns", "ns"),
    ("shard.offer_self_ns", "ns"),
    ("shard.route_ns", "ns"),
    ("shard.route_self_ns", "ns"),
    ("shard.handoff_ns", "ns"),
    ("shard.poll_timers_ns", "ns"),
    ("shard.outbound_pop_ns", "ns"),
    ("shard.delivered_pop_ns", "ns"),
    ("shard.handoffs_per_symbol", "count"),
    ("shard.unaccounted_ns", "ns"),
    ("harness.self_ns", "ns"),
    ("alloc.allocs_per_symbol", "count"),
    ("base.pool_take_put_ns", "ns"),
    ("base.queue_push_pop_ns.heap", "ns"),
    ("base.queue_push_pop_ns.wheel", "ns"),
    ("udp.user_us_per_symbol", "us"),
    ("udp.sys_us_per_symbol", "us"),
    ("udp.wakeups_per_symbol", "count"),
    ("udp.syscalls_per_symbol", "count"),
    ("udp.datagrams_per_syscall", "count"),
    ("udp.handoffs_per_symbol", "count"),
    ("udp.send_drops", "count"),
    ("udp.mean_delay_us", "us"),
    ("udp.sent_vs_scheduled", "ratio"),
    ("udp.kernel_residual_us", "us"),
    ("udp.peak_delivered_per_s", "1/s"),
    ("udp.busypoll_cpu_us_per_symbol", "us"),
    ("netsim.events_per_symbol", "count"),
    ("netsim.ns_per_event", "ns"),
    ("lp.solve_ms", "ms"),
    ("core.schedule_metrics_us", "us"),
    ("obs.hist_record_ns", "ns"),
    ("obs.span_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// The unit of the metric `name`. Panics on a name in neither table: a
/// metric the harness prints but `BENCHMARK.json` does not list.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or_else(
            || panic!("{name} is not a metric of BENCHMARK.json"),
            |(_, u)| *u,
        )
}

/// The regression bound of every end-to-end metric, read from the
/// repository's `BENCHMARK.json` (one directory above this package).
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(serde::Value::Array(metrics)) = root.field("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end array".to_string());
    };
    metrics
        .iter()
        .map(|m| match (m.field("name"), m.field("bound")) {
            (Some(serde::Value::String(name)), Some(serde::Value::Number(bound))) => {
                Ok((name.clone(), *bound))
            }
            _ => Err("end_to_end entry without name and bound".to_string()),
        })
        .collect()
}
