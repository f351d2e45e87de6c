//! Chaos benchmark: emits `BENCH_chaos.json` with throughput, recovery
//! counters, bit-exactness, and lockstep status at fault rates 0/1/5/10%
//! for CC-off, native CC, and PipeLLM — plus the networked kill sweep:
//! supervised deployments (in-process duplex and real localhost TCP)
//! with workers killed/hung at 0/1/5/10% per received frame, every run
//! required to fail over and finish bit-identical to its fault-free
//! twin with all edges in epoch/IV lockstep.
//!
//! Usage:
//!   cargo run --release -p pipellm-bench --bin bench_chaos \
//!       [--smoke] [out.json]
//!
//! `--smoke` runs the CI-sized sweep (fewer micro-batches/iterations);
//! both sweeps cover all four fault rates and all three systems. Without
//! an explicit path the artifact lands at the workspace root, so the
//! committed resilience trajectory updates in place.

use pipellm_bench::chaos;

fn main() {
    let pipellm_bench::BenchArgs { smoke, out_path } =
        pipellm_bench::bench_args("BENCH_chaos.json");

    let (micro_batches, iterations) = if smoke { (3, 2) } else { (6, 4) };

    let rows = chaos::run(micro_batches, iterations);
    // The networked kill sweep: supervised failover under process chaos.
    let kill_rows = chaos::run_net_kill(smoke);
    let artifact = chaos::artifact(&rows, &kill_rows);
    print!("{}", artifact.tables());

    // The claims the artifact exists to track: every system completes
    // every micro-batch at every fault rate, bit-exact with its own
    // fault-free run, with every edge's IV counters in lockstep.
    let expected = (micro_batches * iterations) as u64;
    for row in &rows {
        let at = format!("{} @ {:.0}%", row.system, row.fault_rate * 100.0);
        assert_eq!(row.completed, expected, "{at} dropped micro-batches");
        assert!(row.bit_exact, "{at} diverged from its fault-free outputs");
        assert!(row.lockstep, "{at} ended with desynced edge counters");
        assert!(
            row.vs_clean > 0.25,
            "{at} degraded past graceful ({:.2}x)",
            row.vs_clean
        );
    }
    // The encrypted systems really were under fire at the top rate.
    assert!(
        rows.iter()
            .filter(|r| r.fault_rate >= 0.10 && r.system != "w/o CC")
            .all(|r| r.faults_injected > 0),
        "10% sweep injected nothing — chaos wiring is dead"
    );

    for row in &kill_rows {
        let at = format!("{} @ {:.0}% kill", row.transport, row.kill_rate * 100.0);
        assert!(row.bit_exact, "{at} diverged from its fault-free twin");
        assert!(row.lockstep, "{at} ended with desynced edge counters");
        assert_eq!(
            row.detections, row.failovers,
            "{at} detected a death it never recovered from"
        );
    }
    assert!(
        kill_rows.iter().any(|r| r.failovers > 0),
        "kill sweep landed no kills — supervision chaos wiring is dead"
    );

    artifact.write(&out_path);
    println!("wrote {out_path}");
}
