//! The orchestrator: handshake driver, ciphertext relay, and auditor.
//!
//! The orchestrator is the hub of the star topology. It drives the
//! versioned handshake (welcome → shard manifests → acks → start), seals
//! model inputs onto stage 0's host edge, relays worker↔worker data
//! frames *without being able to read them* (edge keys are end-to-end),
//! opens the last stage's outputs on the egress host edge, and sequences
//! the drain/report/shutdown at the end of a run.
//!
//! Recovery is orchestrator-coordinated: when a worker announces
//! `LinkRestored` after its data connection was dropped and re-dialed, the
//! orchestrator bumps the authoritative epoch of every edge adjacent to
//! that worker and broadcasts `RekeyEdge` to the affected endpoints. Both
//! ends of each edge rederive keys at the new epoch with IV counters back
//! at 1, and the sending side retransmits everything unacknowledged —
//! fresh keys, fresh IVs, no counter ever reused.
//!
//! The one drive loop that sequences this core — handshake, supervised
//! serve, drain, flush, audit — and the deployment harnesses live in
//! [`crate::supervisor`]; the bit-exactness tests hold the duplex and TCP
//! outputs identical to each other and to the plain in-process
//! computation.

use crate::error::{NetError, NetResult};
use crate::link::{
    open_data, role_at, seal_and_send, send_on, EdgeCrypto, LinkTx, RxOutcome, SenderSlot, WireEdge,
};
use crate::proto::{
    CounterReport, DataAck, DataFrame, EdgeCounterEntry, Msg, RekeyEdge, ShardManifest, DIAL_RETRY,
    HOST_NODE, OP_TIMEOUT, POLL_INTERVAL, QUIET_WINDOW, RESEND_AFTER,
};
use crate::pump::PumpEvent;
use crate::transport::{Reattach, TcpDial, TcpTransport};
use crate::worker::{wire_retry_policy, WorkerLinks};
use pipellm::partition::{apply_stage, iteration_input, stage_weight_hash, StagePartition};
use pipellm_chaos::{ChaosInjector, FaultPlan, RetryPolicy};
use pipellm_crypto::session::derive_subseed;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Everything that defines one networked pipeline run.
#[derive(Debug, Clone)]
pub struct NetPipelineSpec {
    /// Pipeline stages (one worker process per stage).
    pub stages: u32,
    /// Total model layers, balanced across stages.
    pub layers: u32,
    /// Iterations to serve.
    pub iterations: u32,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// Activation payload bytes per micro-batch.
    pub activation_bytes: usize,
    /// Cluster key-derivation seed (drives all edge and host-channel keys
    /// plus the deterministic inputs).
    pub seed: u64,
    /// Total fault rate injected at the net link of every sender; zero
    /// disables chaos entirely.
    pub net_fault_rate: f64,
    /// Per-received-frame probability that a worker process abruptly dies
    /// or hangs ([`pipellm_chaos::FaultSite::WorkerProcess`]); the
    /// supervisor detects the death and fails the stage over.
    pub worker_fault_rate: f64,
    /// Seed of the fault plans (decorrelated per node).
    pub chaos_seed: u64,
    /// Wire-scale retry policy for reconnects and retransmits.
    pub policy: RetryPolicy,
    /// Receive-poll granularity.
    pub poll: Duration,
    /// Per-phase deadline (handshake, serve idle, drain, shutdown).
    pub op_timeout: Duration,
    /// Silence window declaring a drained data plane.
    pub quiet: Duration,
    /// Age at which an unacknowledged frame is retransmitted by the
    /// level-triggered sweep.
    pub resend_after: Duration,
}

impl Default for NetPipelineSpec {
    fn default() -> Self {
        NetPipelineSpec {
            stages: 4,
            layers: 8,
            iterations: 2,
            micro_batches: 2,
            activation_bytes: 4096,
            seed: 0x9e3779b9,
            net_fault_rate: 0.0,
            worker_fault_rate: 0.0,
            chaos_seed: 0xC0A5,
            policy: wire_retry_policy(),
            poll: POLL_INTERVAL,
            op_timeout: OP_TIMEOUT,
            quiet: QUIET_WINDOW,
            resend_after: RESEND_AFTER,
        }
    }
}

impl NetPipelineSpec {
    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on zero stages/iterations/micro-batches or a
    /// layer count below the stage count.
    pub fn validate(&self) -> NetResult<()> {
        if self.stages == 0 || self.iterations == 0 || self.micro_batches == 0 {
            return Err(NetError::Protocol {
                detail: "stages, iterations, and micro_batches must be positive".to_string(),
            });
        }
        if self.layers < self.stages {
            return Err(NetError::Protocol {
                detail: format!("{} layers cannot cover {} stages", self.layers, self.stages),
            });
        }
        Ok(())
    }

    /// The shard manifest of `stage` under this spec's balanced partition.
    pub fn manifest_for(&self, stage: u32) -> ShardManifest {
        let partition = StagePartition::balanced(self.layers, self.stages as usize);
        let range = partition.layers_of(stage as usize);
        ShardManifest {
            stage,
            stages: self.stages,
            layers: self.layers,
            layer_start: range.start,
            layer_end: range.end,
            weight_hash: stage_weight_hash(range),
            activation_bytes: self.activation_bytes as u64,
            micro_batches: self.micro_batches,
            iterations: self.iterations,
            cluster_seed: self.seed,
        }
    }

    /// The reference outputs: every iteration input pushed through every
    /// stage's layer range in order, no network involved. The networked
    /// run must reproduce these byte for byte.
    pub fn expected_outputs(&self) -> Vec<Vec<u8>> {
        let partition = StagePartition::balanced(self.layers, self.stages as usize);
        let mut outputs = Vec::new();
        for iteration in 0..self.iterations {
            for micro_batch in 0..self.micro_batches {
                let mut bytes = iteration_input(
                    self.seed,
                    iteration as usize,
                    micro_batch as usize,
                    self.activation_bytes,
                );
                for stage in 0..self.stages as usize {
                    apply_stage(partition.layers_of(stage), &mut bytes);
                }
                outputs.push(bytes);
            }
        }
        outputs
    }

    /// The per-node fault injector for this spec, or `None` when the rate
    /// is zero. `node` is a stage index or [`HOST_NODE`]; each node rolls
    /// an independent deterministic stream.
    pub fn injector_for(&self, node: u32) -> Option<Arc<ChaosInjector>> {
        let worker_rate = if node == HOST_NODE {
            0.0 // the orchestrator process is the trusted computing base here
        } else {
            self.worker_fault_rate
        };
        if self.net_fault_rate <= 0.0 && worker_rate <= 0.0 {
            return None;
        }
        let seed = derive_subseed(self.chaos_seed, u64::from(node));
        Some(Arc::new(ChaosInjector::new(
            FaultPlan::new(seed)
                .with_net_rate(self.net_fault_rate)
                .with_stage_rate(worker_rate),
        )))
    }
}

/// Outcome of one networked pipeline run.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Which transport backed the run (`"duplex"` / `"tcp"`).
    pub transport: String,
    /// Stage count.
    pub stages: u32,
    /// Final outputs in (iteration, micro-batch) order.
    pub outputs: Vec<Vec<u8>>,
    /// Order-sensitive digest of the outputs.
    pub output_digest: u64,
    /// Every worker's end-of-run counter report, by stage.
    pub worker_reports: Vec<CounterReport>,
    /// The orchestrator's own counter report (host edges).
    pub host_report: CounterReport,
    /// Worker↔worker frames relayed (ciphertext the host could not read).
    pub relayed_frames: u64,
    /// Total retransmitted frames across all nodes.
    pub retransmits: u64,
    /// Total sentinel-absorbed opens across all nodes.
    pub sentinels: u64,
    /// Total data-link reconnects across all workers.
    pub reconnects: u64,
    /// Edge epoch bumps the orchestrator coordinated.
    pub rekeys: u64,
    /// Whether the end-of-run lockstep audit passed (a failed audit is
    /// returned as [`NetError::Lockstep`], so a report always says true —
    /// the field exists for serialized artifacts).
    pub lockstep_ok: bool,
}

/// Order-sensitive digest over the output payloads.
pub fn digest_outputs(outputs: &[Vec<u8>]) -> u64 {
    let mut acc = 0x6f75_7470u64; // "outp"
    for out in outputs {
        acc = derive_subseed(acc, out.len() as u64);
        for chunk in out.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = derive_subseed(acc, u64::from_le_bytes(word));
        }
    }
    acc
}

pub(crate) struct Orchestrator {
    pub(crate) spec: NetPipelineSpec,
    pub(crate) edges: BTreeMap<WireEdge, EdgeCrypto>,
    /// Authoritative epoch of every edge in the deployment.
    pub(crate) edge_epochs: BTreeMap<WireEdge, u32>,
    pub(crate) control_slots: Vec<SenderSlot>,
    pub(crate) data_slots: Vec<SenderSlot>,
    pub(crate) ingress_tx: LinkTx,
    pub(crate) outputs: BTreeMap<(u32, u32), Vec<u8>>,
    pub(crate) chaos: Option<Arc<ChaosInjector>>,
    pub(crate) relayed: u64,
    pub(crate) retransmits: u64,
    pub(crate) sentinels: u64,
    pub(crate) reconnects: u64,
    pub(crate) rekeys: u64,
}

impl Orchestrator {
    pub(crate) fn new(
        spec: &NetPipelineSpec,
        control_slots: Vec<SenderSlot>,
        data_slots: Vec<SenderSlot>,
    ) -> Self {
        let last = spec.stages - 1;
        let ingress = WireEdge::between(0, HOST_NODE);
        let egress = WireEdge::between(last, HOST_NODE);
        let mut edges = BTreeMap::new();
        let mut edge_epochs = BTreeMap::new();
        for edge in [ingress, egress] {
            edges
                .entry(edge)
                .or_insert_with(|| EdgeCrypto::new(spec.seed, edge, role_at(edge, HOST_NODE)));
            edge_epochs.insert(edge, 0);
        }
        for s in 1..spec.stages {
            edge_epochs.insert(WireEdge::between(s - 1, s), 0);
        }
        Orchestrator {
            chaos: spec.injector_for(HOST_NODE),
            spec: spec.clone(),
            edges,
            edge_epochs,
            control_slots,
            data_slots,
            ingress_tx: LinkTx::default(),
            outputs: BTreeMap::new(),
            relayed: 0,
            retransmits: 0,
            sentinels: 0,
            reconnects: 0,
            rekeys: 0,
        }
    }

    pub(crate) fn ingress_edge(&self) -> WireEdge {
        WireEdge::between(0, HOST_NODE)
    }

    pub(crate) fn egress_edge(&self) -> WireEdge {
        WireEdge::between(self.spec.stages - 1, HOST_NODE)
    }

    pub(crate) fn control_send(&self, stage: u32, msg: &Msg) -> NetResult<()> {
        send_on(
            &self.control_slots[stage as usize],
            &msg.encode()?,
            "control",
        )
    }

    /// Seals and sends one pending ingress frame to stage 0.
    pub(crate) fn send_ingress(&mut self, seq: u64) -> NetResult<()> {
        let edge = self.ingress_edge();
        let crypto = self.edges.get_mut(&edge).ok_or(NetError::Protocol {
            detail: "ingress edge missing".to_string(),
        })?;
        let Some(pending) = self.ingress_tx.get_mut(seq) else {
            return Ok(());
        };
        seal_and_send(
            crypto,
            HOST_NODE,
            0,
            pending,
            self.chaos.as_ref(),
            &self.spec.policy,
            &self.data_slots[0],
            "data-0",
        )?;
        Ok(())
    }

    /// Level-triggered ingress retransmit, mirroring the workers' sweep:
    /// any ingress frame unacknowledged past the threshold is resealed at
    /// a fresh IV, recovering losses no NACK or rekey cycle reports.
    pub(crate) fn sweep(&mut self, threshold: Duration) -> NetResult<()> {
        for seq in self.ingress_tx.stale(threshold) {
            self.retransmits += 1;
            self.send_ingress(seq)?;
        }
        Ok(())
    }

    /// Handles a data frame arriving from worker `from`: opens egress
    /// frames, relays everything else toward its destination worker.
    pub(crate) fn handle_data(&mut self, from: u32, frame: DataFrame) -> NetResult<()> {
        if frame.src != from {
            return Err(NetError::Protocol {
                detail: format!("stage {from} sent a frame claiming src {}", frame.src),
            });
        }
        if frame.dst == HOST_NODE {
            if frame.src != self.spec.stages - 1 {
                return Err(NetError::Protocol {
                    detail: format!("egress frame from non-final stage {}", frame.src),
                });
            }
            let edge = self.egress_edge();
            let crypto = self.edges.get_mut(&edge).ok_or(NetError::Protocol {
                detail: "egress edge missing".to_string(),
            })?;
            match open_data(crypto, &frame) {
                RxOutcome::Plain(bytes) => {
                    self.control_send(
                        frame.src,
                        &Msg::AckData(DataAck {
                            src: frame.src,
                            dst: frame.dst,
                            seq: frame.seq,
                        }),
                    )?;
                    self.outputs
                        .entry((frame.iteration, frame.micro_batch))
                        .or_insert(bytes);
                }
                RxOutcome::Sentinel => {
                    self.sentinels += 1;
                    self.control_send(
                        frame.src,
                        &Msg::NackData(DataAck {
                            src: frame.src,
                            dst: frame.dst,
                            seq: frame.seq,
                        }),
                    )?;
                }
                RxOutcome::StaleEpoch => {}
            }
            return Ok(());
        }
        if frame.dst >= self.spec.stages {
            return Err(NetError::Protocol {
                detail: format!("frame routed to unknown stage {}", frame.dst),
            });
        }
        // Inter-stage hop: relay the sealed bytes untouched. A dead
        // destination link loses the frame here — the destination's
        // reconnect rekeys the edge and the source retransmits.
        let relayed = Msg::Data(frame.clone()).encode()?;
        match send_on(&self.data_slots[frame.dst as usize], &relayed, "relay") {
            Ok(()) => self.relayed += 1,
            Err(NetError::ConnectionLost { .. }) => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Handles an ACK/NACK: consumes it if it targets a host-sent frame,
    /// relays it to the sending worker otherwise.
    pub(crate) fn handle_ack(&mut self, ack: DataAck, negative: bool) -> NetResult<()> {
        if ack.src == HOST_NODE {
            if negative {
                if self.ingress_tx.get_mut(ack.seq).is_some() {
                    self.retransmits += 1;
                    self.send_ingress(ack.seq)?;
                }
            } else {
                self.ingress_tx.ack(ack.seq);
            }
            return Ok(());
        }
        if ack.src >= self.spec.stages {
            return Err(NetError::Protocol {
                detail: format!("ack for unknown stage {}", ack.src),
            });
        }
        let msg = if negative {
            Msg::NackData(ack)
        } else {
            Msg::AckData(ack)
        };
        self.control_send(ack.src, &msg)
    }

    /// The fresh-IV recovery cycle for every edge adjacent to `stage`:
    /// bump the authoritative epoch, broadcast `RekeyEdge` to the worker
    /// endpoints, rekey the host's own end of host edges, and retransmit
    /// host-sent frames that were in flight on them.
    pub(crate) fn rekey_adjacent(&mut self, stage: u32) -> NetResult<()> {
        let mut adjacent: Vec<WireEdge> = self
            .edge_epochs
            .keys()
            .copied()
            .filter(|e| e.touches(stage))
            .collect();
        adjacent.sort();
        for edge in adjacent {
            let epoch = self.edge_epochs.get(&edge).copied().unwrap_or(0) + 1;
            self.edge_epochs.insert(edge, epoch);
            self.rekeys += 1;
            if let Some(crypto) = self.edges.get_mut(&edge) {
                crypto.rekey_to(epoch);
            }
            let rekey = Msg::RekeyEdge(RekeyEdge {
                a: edge.a,
                b: edge.b,
                epoch,
            });
            // A dead endpoint cannot hear the rekey right now; the
            // authoritative epoch is already bumped, and that stage's own
            // failover re-rekeys every adjacent edge once it is readmitted.
            // Absorbing the loss keeps concurrent adjacent failovers from
            // aborting this sweep mid-edge-list.
            match self.control_send(edge.a, &rekey) {
                Ok(()) | Err(NetError::ConnectionLost { .. }) => {}
                Err(e) => return Err(e),
            }
            if edge.b != HOST_NODE {
                match self.control_send(edge.b, &rekey) {
                    Ok(()) | Err(NetError::ConnectionLost { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            if edge == self.ingress_edge() {
                let seqs: Vec<u64> = self.ingress_tx.pending_mut().map(|p| p.seq).collect();
                for seq in seqs {
                    self.retransmits += 1;
                    self.send_ingress(seq)?;
                }
            }
        }
        Ok(())
    }

    /// Handles one relay-plane frame from `stage` during the serve or
    /// drain phases — everything the supervision layer does not consume
    /// itself (heartbeats, checkpoints, readmission handshakes).
    pub(crate) fn handle_frame(
        &mut self,
        stage: u32,
        msg: Msg,
    ) -> NetResult<Option<CounterReport>> {
        match msg {
            Msg::Data(frame) => {
                self.handle_data(stage, frame)?;
                Ok(None)
            }
            Msg::AckData(ack) => {
                self.handle_ack(ack, false)?;
                Ok(None)
            }
            Msg::NackData(ack) => {
                self.handle_ack(ack, true)?;
                Ok(None)
            }
            Msg::LinkRestored { stage: s } => {
                if s != stage {
                    return Err(NetError::Protocol {
                        detail: format!("stage {stage} announced a restore for stage {s}"),
                    });
                }
                self.reconnects += 1;
                self.rekey_adjacent(s)?;
                Ok(None)
            }
            Msg::Done(report) => Ok(Some(report)),
            // A late data-link identification frame is harmless.
            Msg::DataHello { stage: s, .. } if s == stage => Ok(None),
            other => Err(NetError::Protocol {
                detail: format!("unexpected {other:?} from stage {stage}"),
            }),
        }
    }

    pub(crate) fn host_report(&self) -> CounterReport {
        CounterReport {
            stage: HOST_NODE,
            edges: self
                .edges
                .iter()
                .map(|(edge, crypto)| EdgeCounterEntry {
                    a: edge.a,
                    b: edge.b,
                    epoch: crypto.epoch(),
                    tx_iv: crypto.tx_iv(),
                    rx_iv: crypto.rx_iv(),
                })
                .collect(),
            retransmits: self.retransmits,
            sentinels: self.sentinels,
            reconnects: self.reconnects,
        }
    }
}

/// Audits that every edge's two endpoints finished in perfect lockstep:
/// same epoch, and each side's send counter equal to the other side's
/// receive counter. This is the wire-level witness that no IV was ever
/// reused or skipped asymmetrically — even across injected faults,
/// retransmits, and connection drops.
pub(crate) fn audit_lockstep(reports: &[CounterReport], host: &CounterReport) -> NetResult<()> {
    let mut by_edge: BTreeMap<(u32, u32), Vec<(u32, EdgeCounterEntry)>> = BTreeMap::new();
    for report in reports.iter().chain(std::iter::once(host)) {
        for entry in &report.edges {
            by_edge
                .entry((entry.a, entry.b))
                .or_default()
                .push((report.stage, *entry));
        }
    }
    for ((a, b), entries) in by_edge {
        if entries.len() != 2 {
            return Err(NetError::Lockstep {
                detail: format!("edge {a}-{b} reported by {} endpoints", entries.len()),
            });
        }
        let (na, ea) = (entries[0].0, entries[0].1);
        let (nb, eb) = (entries[1].0, entries[1].1);
        if ea.epoch != eb.epoch {
            return Err(NetError::Lockstep {
                detail: format!(
                    "edge {a}-{b}: epoch {} at node {na} vs {} at node {nb}",
                    ea.epoch, eb.epoch
                ),
            });
        }
        if ea.tx_iv != eb.rx_iv || ea.rx_iv != eb.tx_iv {
            return Err(NetError::Lockstep {
                detail: format!(
                    "edge {a}-{b}: node {na} tx/rx {}/{} vs node {nb} tx/rx {}/{}",
                    ea.tx_iv, ea.rx_iv, eb.tx_iv, eb.rx_iv
                ),
            });
        }
    }
    Ok(())
}

pub(crate) fn next_event(
    events: &mpsc::Receiver<(u32, PumpEvent)>,
    poll: Duration,
) -> NetResult<Option<(u32, PumpEvent)>> {
    match events.recv_timeout(poll) {
        Ok(ev) => Ok(Some(ev)),
        Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Protocol {
            detail: "all pumps exited".to_string(),
        }),
    }
}

/// Dials the two connections of `stage` against `addr` and identifies them
/// (`Hello` rides later in the worker's own handshake; the transport-level
/// identification here is what the acceptor routes on). `generation` is
/// the incarnation the connections identify as — the acceptor rejects
/// anything below the stage's current generation.
pub fn dial_worker_links(
    addr: std::net::SocketAddr,
    stage: u32,
    generation: u32,
    timeout: Duration,
) -> NetResult<WorkerLinks> {
    let deadline = Instant::now() + timeout;
    let control = loop {
        match TcpTransport::connect(addr, format!("tcp-ctl{stage}")) {
            Ok(t) => break t,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(DIAL_RETRY);
            }
            Err(e) => return Err(e),
        }
    };
    let mut dial = TcpDial::new(addr, stage, generation, format!("tcp{stage}"));
    let data = dial.reattach(deadline.saturating_duration_since(Instant::now()))?;
    Ok(WorkerLinks {
        control: Box::new(control),
        data,
        data_reattach: Some(Box::new(dial)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{run_supervised_duplex, SupervisedOptions};

    fn small_spec() -> NetPipelineSpec {
        NetPipelineSpec {
            stages: 4,
            layers: 8,
            iterations: 2,
            micro_batches: 2,
            activation_bytes: 512,
            seed: 0xFEED,
            // Phase timeouts only fire on a true wedge; generous values
            // keep a starved single-core test runner from tripping them.
            op_timeout: Duration::from_secs(60),
            ..NetPipelineSpec::default()
        }
    }

    #[test]
    fn duplex_pipeline_matches_reference_outputs() {
        let spec = small_spec();
        let report = run_supervised_duplex(&spec, &SupervisedOptions::default())
            .unwrap()
            .net;
        assert_eq!(report.outputs, spec.expected_outputs());
        assert_eq!(report.worker_reports.len(), 4);
        assert_eq!(report.sentinels, 0);
        assert_eq!(report.reconnects, 0);
        assert!(report.lockstep_ok);
        // Middle hops are relayed ciphertext: 3 inter-stage edges carry
        // 4 frames each. A starved scheduler can add sweep duplicates.
        assert!(
            report.relayed_frames >= 12,
            "relayed {}",
            report.relayed_frames
        );
    }

    #[test]
    fn single_stage_duplex_roundtrips() {
        let spec = NetPipelineSpec {
            stages: 1,
            layers: 3,
            iterations: 1,
            micro_batches: 2,
            activation_bytes: 128,
            op_timeout: Duration::from_secs(60),
            ..NetPipelineSpec::default()
        };
        let report = run_supervised_duplex(&spec, &SupervisedOptions::default())
            .unwrap()
            .net;
        assert_eq!(report.outputs, spec.expected_outputs());
        assert_eq!(report.relayed_frames, 0);
    }

    #[test]
    fn chaos_duplex_recovers_and_stays_bit_identical() {
        let spec = NetPipelineSpec {
            net_fault_rate: 0.25,
            ..small_spec()
        };
        let report = run_supervised_duplex(&spec, &SupervisedOptions::default())
            .unwrap()
            .net;
        assert_eq!(
            report.outputs,
            spec.expected_outputs(),
            "faulted run must still be bit-identical"
        );
        assert!(
            report.sentinels + report.reconnects > 0,
            "a 25% fault rate must actually fire"
        );
        assert!(report.lockstep_ok);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = vec![vec![1u8, 2], vec![3u8, 4]];
        let b = vec![vec![3u8, 4], vec![1u8, 2]];
        assert_ne!(digest_outputs(&a), digest_outputs(&b));
        assert_eq!(digest_outputs(&a), digest_outputs(&a));
    }

    #[test]
    fn spec_validation_rejects_degenerate_shapes() {
        let mut spec = small_spec();
        spec.stages = 0;
        assert!(spec.validate().is_err());
        let mut spec = small_spec();
        spec.layers = 2;
        assert!(spec.validate().is_err());
    }
}
