//! Encrypted paged KV-cache benchmark: emits `BENCH_kvcache.json` with
//! vLLM normalized latency versus arrival rate for CC-off, native CC, and
//! PipeLLM, plus the sealed-swap pipeline's speculation and
//! pre-decryption hit rates.
//!
//! Usage:
//!   cargo run --release -p pipellm-bench --bin bench_kvcache \
//!       [--smoke] [out.json]
//!
//! `--smoke` runs the CI-sized sweep (two rates, shorter traces); the
//! default sweep covers four rates at the full trace length.

use pipellm_bench::kvcache;

fn main() {
    let pipellm_bench::BenchArgs { smoke, out_path } =
        pipellm_bench::bench_args("BENCH_kvcache.json");

    let (rates, duration_secs): (&[f64], f64) = if smoke {
        (&[0.4, 0.8], 120.0)
    } else {
        (&[0.2, 0.4, 0.8, 1.2], 300.0)
    };

    let rows = kvcache::run(rates, duration_secs);
    let artifact = kvcache::artifact(&rows);
    print!("{}", artifact.tables());

    // The claims the artifact exists to track.
    for rate in rates {
        let norm = |label: &str| {
            rows.iter()
                .find(|r| r.rate_rps == *rate && r.system == label)
                .map(|r| r.norm_latency_s_per_token)
                .unwrap_or_else(|| panic!("missing row {label}@{rate}"))
        };
        assert!(
            norm("PipeLLM") <= norm("CC"),
            "PipeLLM must not lose to native CC at {rate} req/s"
        );
    }
    assert!(
        rows.iter().any(|r| r.preemptions > 0),
        "the sweep must exercise KV swapping"
    );
    for row in &rows {
        if row.system == "PipeLLM" {
            assert_eq!(row.lockstep, Some(true), "counters out of lockstep");
            if row.preemptions > 0 {
                assert!(
                    row.pre_decrypt_rate.unwrap_or(0.0) > 0.0,
                    "pre-decryption must show a measurable hit rate at {} req/s",
                    row.rate_rps
                );
            }
        }
    }

    artifact.write(&out_path);
    println!("wrote {out_path}");
}
