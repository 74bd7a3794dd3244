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
# usage: scripts/asan.sh [backend ...]    (default: every backend)
set -euo pipefail
cd "$(dirname "$0")/.."

backends=("$@")
if [ ${#backends[@]} -eq 0 ]; then
  backends=(scalar table simd gfni)
fi
target=$(rustc +nightly -vV | sed -n 's/^host: //p')

for backend in "${backends[@]}"; do
  echo "== AddressSanitizer, MCSS_GF256_BACKEND=$backend"
  MCSS_GF256_BACKEND=$backend RUSTFLAGS=-Zsanitizer=address \
    cargo +nightly test --offline -q -p mcss-gf256 -p mcss-shamir -p mcss-codec \
    --target "$target" --lib --tests
done
