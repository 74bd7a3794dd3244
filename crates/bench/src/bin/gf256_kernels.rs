//! GF(2⁸) kernel microbenchmark binary: measures every available
//! backend (scalar, table, SIMD) across ops and length classes
//! and writes `BENCH_gf256_kernels.json`. See
//! [`mcss_bench::gf256_kernels`] for the measurement details.

fn main() {
    mcss_bench::report::enable_emission();
    mcss_bench::gf256_kernels::run();
}
