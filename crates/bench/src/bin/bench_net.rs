//! Networked-deployment benchmark: emits `BENCH_net.json` with wall time,
//! throughput, relay and retransmit counts for full orchestrator+worker
//! deployments swept over stage counts, on real localhost TCP and on the
//! in-process duplex transport.
//!
//! Usage:
//!   cargo run --release -p pipellm-bench --bin bench_net \
//!       [--smoke] [out.json]
//!
//! `--smoke` runs the CI-sized sweep (stages 1/2/4, small payloads); the
//! full sweep adds 8 stages and larger activations. Without an explicit
//! path the artifact lands at the workspace root, so the committed perf
//! trajectory updates in place.

use pipellm_bench::net;

fn main() {
    let pipellm_bench::BenchArgs { smoke, out_path } = pipellm_bench::bench_args("BENCH_net.json");

    let stages: &[u32] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let rows = net::run(stages, smoke);
    let artifact = net::artifact(&rows);
    print!("{}", artifact.tables());

    // The claims the artifact exists to track.
    assert!(
        rows.iter().all(|r| r.bit_exact),
        "every deployment must be bit-exact with the no-network reference"
    );
    assert!(
        rows.iter().all(|r| r.lockstep),
        "edge counters out of lockstep"
    );
    for &n in stages {
        let digests: Vec<u64> = rows
            .iter()
            .filter(|r| r.stages == n)
            .map(|r| r.output_digest)
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "transports disagree at {n} stages"
        );
    }

    artifact.write(&out_path);
    println!("wrote {out_path}");
}
