//! End-to-end tests of the networked deployment: TCP and duplex runs must
//! be bit-identical to each other and to the in-process reference, and a
//! chaos-injected run must recover with every edge in lockstep.

use pipellm_repro::net::{
    run_supervised_duplex, run_supervised_tcp_threads, NetPipelineSpec, SupervisedOptions,
};
use std::time::Duration;

fn spec() -> NetPipelineSpec {
    NetPipelineSpec {
        stages: 4,
        layers: 8,
        iterations: 2,
        micro_batches: 2,
        activation_bytes: 1024,
        seed: 0xA5A5_1234,
        // Generous: phase timeouts only fire on a true wedge, and the CI
        // runner may be a starved single core.
        op_timeout: Duration::from_secs(60),
        ..NetPipelineSpec::default()
    }
}

#[test]
fn four_stage_tcp_matches_the_in_process_reference_bit_for_bit() {
    let spec = spec();
    let report = run_supervised_tcp_threads(&spec, &SupervisedOptions::default())
        .expect("tcp run")
        .net;
    assert_eq!(report.transport, "tcp");
    assert_eq!(
        report.outputs,
        spec.expected_outputs(),
        "TCP outputs must equal the in-process computation byte for byte"
    );
    assert!(report.lockstep_ok);
}

#[test]
fn tcp_and_duplex_transports_are_interchangeable() {
    let spec = spec();
    let tcp = run_supervised_tcp_threads(&spec, &SupervisedOptions::default())
        .expect("tcp run")
        .net;
    let duplex = run_supervised_duplex(&spec, &SupervisedOptions::default())
        .expect("duplex run")
        .net;
    assert_eq!(tcp.outputs, duplex.outputs);
    assert_eq!(
        tcp.output_digest, duplex.output_digest,
        "digest must not depend on the transport"
    );
}

#[test]
fn chaos_connection_drops_recover_in_lockstep_over_tcp() {
    let spec = NetPipelineSpec {
        net_fault_rate: 0.2,
        ..spec()
    };
    let report = run_supervised_tcp_threads(&spec, &SupervisedOptions::default())
        .expect("chaos tcp run")
        .net;
    assert_eq!(
        report.outputs,
        spec.expected_outputs(),
        "recovery must preserve bit-exactness"
    );
    assert!(
        report.sentinels + report.reconnects > 0,
        "a 20% fault rate must actually fire (sentinels {}, reconnects {})",
        report.sentinels,
        report.reconnects
    );
    // Reconnected links resume at a bumped epoch with IV counters back at
    // 1 — the lockstep audit inside the run fails it if any
    // edge's counters or epochs diverge, so reaching here with reconnects
    // is the no-IV-reuse witness.
    assert!(report.lockstep_ok);
    if report.reconnects > 0 {
        assert!(report.rekeys > 0, "reconnects must trigger epoch rekeys");
    }
}
