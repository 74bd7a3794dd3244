#!/usr/bin/env bash
# AddressSanitizer over the field, Shamir and codec crates: every load
# and store of the vector kernels (raw-pointer code behind `unsafe`) is
# checked against the bounds of the slices it was handed, by their own
# tests and as both codecs drive them, once under each kernel backend
# this host can force.
#
# Needs a nightly toolchain (`-Zsanitizer`); nothing is downloaded
# (`--offline`, and the sanitizer runtime ships with the toolchain).
# `--target` keeps the instrumented build apart from target/debug and
# keeps build scripts and proc-macros uninstrumented. A backend the
# host lacks falls back with a warning and its exhaustive tests print
# `[skip-forced]`, as in the `gf256-backends` CI job.
#
# The leg `remicss` runs the protocol crate (`--features sim`, lib and
# integration tests) on the default backend: the engine, reassembly and
# wire code that hands those kernels their slices. No test is skipped:
# the slowest under ASan are `zero_alloc` (≈ 25 s; its counting
# `#[global_allocator]` wraps `System`, which ASan intercepts) and the
# 1M-symbol `reassembly_bound` (≈ 6 s), ≈ 70 s for the leg.
#
# The leg `server` runs the server crate (lib and integration tests,
# `udp_smoke` included): the event loops over real loopback sockets and
# `sys.rs`'s `recvmmsg` / `sendmmsg`, cmsg parsing and GSO marshalling,
# whose `unsafe` reads lengths the kernel hands back (≈ 95 s).
#
# usage: scripts/asan.sh [backend ... | remicss | server]    (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

legs=("$@")
if [ ${#legs[@]} -eq 0 ]; then
  legs=(scalar table simd gfni remicss server)
fi
target=$(rustc +nightly -vV | sed -n 's/^host: //p')

for leg in "${legs[@]}"; do
  if [ "$leg" = remicss ]; then
    echo "== AddressSanitizer, mcss-remicss on the default backend"
    RUSTFLAGS=-Zsanitizer=address \
      cargo +nightly test --offline -q -p mcss-remicss --features sim \
      --target "$target" --lib --tests
  elif [ "$leg" = server ]; then
    echo "== AddressSanitizer, mcss-server on the default backend"
    RUSTFLAGS=-Zsanitizer=address \
      cargo +nightly test --offline -q -p mcss-server \
      --target "$target" --lib --tests
  else
    echo "== AddressSanitizer, MCSS_GF256_BACKEND=$leg"
    MCSS_GF256_BACKEND=$leg RUSTFLAGS=-Zsanitizer=address \
      cargo +nightly test --offline -q -p mcss-gf256 -p mcss-shamir -p mcss-codec \
      --target "$target" --lib --tests
  fi
done
