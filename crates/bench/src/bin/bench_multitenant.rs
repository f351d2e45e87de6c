//! Tenant-scaling benchmark: emits `BENCH_multitenant.json` with
//! normalized latency and speculation hit rate versus tenant count, for
//! CC-off, native CC, and PipeLLM over one shared runtime.
//!
//! Usage:
//!   cargo run --release -p pipellm-bench --bin bench_multitenant \
//!       [--smoke] [out.json]
//!
//! `--smoke` runs the CI-sized sweep (1/2/4 tenants, fewer requests);
//! the default sweep adds 8 tenants and more requests per tenant.

use pipellm_bench::multitenant;

fn main() {
    let pipellm_bench::BenchArgs { smoke, out_path } =
        pipellm_bench::bench_args("BENCH_multitenant.json");

    let (counts, requests): (&[usize], usize) = if smoke {
        (&[1, 2, 4], 10)
    } else {
        (&[1, 2, 4, 8], 32)
    };

    let rows = multitenant::run(counts, requests);
    let artifact = multitenant::artifact(&rows);
    print!("{}", artifact.tables());

    // The claims the artifact exists to track.
    for tenants in counts {
        let norm = |label: &str| {
            rows.iter()
                .find(|r| r.tenants == *tenants && r.system == label)
                .map(|r| r.norm_latency_s_per_chunk)
                .unwrap_or_else(|| panic!("missing row {label}@{tenants}"))
        };
        assert!(
            norm("PipeLLM") < norm("CC-2t"),
            "PipeLLM must beat native CC at {tenants} tenants"
        );
    }
    assert!(rows.iter().all(|r| r.lockstep), "counters out of lockstep");

    artifact.write(&out_path);
    println!("wrote {out_path}");
}
