//! Network model: per-node NICs with finite bandwidth and a global LAN
//! latency.
//!
//! The model is store-and-forward with FIFO byte pipes, the standard
//! lightweight contention model for cluster simulations:
//!
//! * a message of size `S` first occupies the sender's **egress** pipe for
//!   `S / bw(sender)`,
//! * then crosses the wire (fixed `latency`),
//! * then occupies the receiver's **ingress** pipe for `S / bw(receiver)`,
//!   and is delivered when that completes.
//!
//! Because each pipe is FIFO, `k` concurrent senders targeting one node
//! share its ingress capacity, which is exactly the mechanism behind the
//! paper's throughput plateaus and DoS collapse: flooding a data provider's
//! ingress starves the correct clients queued behind the flood.
//!
//! A node whose NIC is marked down neither sends nor receives; in-flight
//! messages to it are dropped at delivery time.

use crate::time::{transfer_time, SimDuration, SimTime};

/// Identifies a simulated node (one actor == one node == one NIC).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Sentinel sender used for messages injected from outside the
    /// simulation (bootstrap traffic); bypasses egress modeling.
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);

    /// Index into dense per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Static configuration of a node's NIC.
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// NIC capacity in bytes/second; `0` means infinite (unmodeled).
    pub bandwidth: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        // 1 Gb/s, the Grid'5000 cluster NIC the paper's deployments used.
        NodeConfig { bandwidth: 125_000_000 }
    }
}

impl NodeConfig {
    /// A NIC with infinite bandwidth (control-plane-only nodes).
    pub fn unlimited() -> Self {
        NodeConfig { bandwidth: 0 }
    }

    /// A NIC with the given capacity in bytes per second.
    pub fn with_bandwidth(bytes_per_sec: u64) -> Self {
        NodeConfig { bandwidth: bytes_per_sec }
    }
}

/// Global network parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// One-way wire latency between any two nodes.
    pub latency: SimDuration,
    /// Fixed per-message overhead added to every transfer (headers,
    /// framing, RPC envelope).
    pub header_bytes: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: SimDuration::from_micros(100),
            header_bytes: 256,
        }
    }
}

/// Dynamic state of one NIC.
#[derive(Clone, Copy, Debug)]
pub struct NicState {
    /// Earliest time the egress pipe is free.
    pub egress_free_at: SimTime,
    /// Earliest time the ingress pipe is free.
    pub ingress_free_at: SimTime,
    /// NIC capacity (bytes/s, 0 = infinite).
    pub bandwidth: u64,
    /// Whether the node is up.
    pub up: bool,
    /// Total bytes pushed through egress.
    pub bytes_sent: u64,
    /// Total bytes pushed through ingress.
    pub bytes_recv: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received (delivered).
    pub msgs_recv: u64,
}

impl NicState {
    fn new(cfg: NodeConfig) -> Self {
        NicState {
            egress_free_at: SimTime::ZERO,
            ingress_free_at: SimTime::ZERO,
            bandwidth: cfg.bandwidth,
            up: true,
            bytes_sent: 0,
            bytes_recv: 0,
            msgs_sent: 0,
            msgs_recv: 0,
        }
    }

    /// Fraction of the window `[from, to]` this NIC's ingress was busy,
    /// measured optimistically from the queue head (used by load probes).
    pub fn ingress_backlog(&self, now: SimTime) -> SimDuration {
        self.ingress_free_at.since(now)
    }
}

/// Breakdown of one scheduled transfer's delivery delay, in nanoseconds.
/// Produced by [`Network::schedule_transfer_timed`] for tracing; the sum
/// of the three parts equals delivery time minus send time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferTiming {
    /// Time spent waiting for the egress and ingress pipes to free up.
    pub queue_ns: u64,
    /// Time spent serializing bytes through both NICs.
    pub xfer_ns: u64,
    /// Fixed wire latency.
    pub wire_ns: u64,
}

/// The cluster network: a dense table of NICs plus global parameters.
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    nics: Vec<NicState>,
}

impl Network {
    /// Create an empty network with the given global parameters.
    pub fn new(cfg: NetConfig) -> Self {
        Network { cfg, nics: Vec::new() }
    }

    /// Register a new node; returns its id.
    pub fn add_node(&mut self, cfg: NodeConfig) -> NodeId {
        let id = NodeId(self.nics.len() as u32);
        self.nics.push(NicState::new(cfg));
        id
    }

    /// Number of registered nodes (including down ones).
    pub fn len(&self) -> usize {
        self.nics.len()
    }

    /// True if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nics.is_empty()
    }

    /// Immutable view of a NIC's state.
    pub fn nic(&self, id: NodeId) -> &NicState {
        &self.nics[id.index()]
    }

    /// Is the node currently up?
    pub fn is_up(&self, id: NodeId) -> bool {
        id == NodeId::EXTERNAL || self.nics.get(id.index()).is_some_and(|n| n.up)
    }

    /// Mark a node down. In-flight messages to it are dropped on arrival.
    pub fn set_down(&mut self, id: NodeId) {
        if let Some(n) = self.nics.get_mut(id.index()) {
            n.up = false;
        }
    }

    /// Bring a node back up (pipes restart empty).
    pub fn set_up(&mut self, id: NodeId, now: SimTime) {
        if let Some(n) = self.nics.get_mut(id.index()) {
            n.up = true;
            n.egress_free_at = now;
            n.ingress_free_at = now;
        }
    }

    /// Compute the delivery time of a `payload_bytes`-sized message sent at
    /// `now` from `from` to `to`, mutating both pipes' occupancy. Returns
    /// `None` if an endpoint is down or `to` is `EXTERNAL` (the message is lost).
    ///
    /// `from == to` (loopback) and `from == EXTERNAL` skip the network
    /// entirely and deliver after a negligible fixed delay.
    pub fn schedule_transfer(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
    ) -> Option<SimTime> {
        self.schedule_transfer_timed(now, from, to, payload_bytes).map(|(at, _)| at)
    }

    /// [`Network::schedule_transfer`] plus the delay breakdown consumed
    /// by tracing. The delivery-time arithmetic is *identical* — the
    /// breakdown reports intermediate values the model computes anyway,
    /// so traced and untraced runs schedule byte-identical events.
    pub fn schedule_transfer_timed(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
    ) -> Option<(SimTime, TransferTiming)> {
        if to == NodeId::EXTERNAL || !self.is_up(to) || !self.is_up(from) {
            return None;
        }
        if from == to || from == NodeId::EXTERNAL {
            return Some((now + SimDuration::from_nanos(1), TransferTiming::default()));
        }
        let size = payload_bytes + self.cfg.header_bytes;

        let src = &mut self.nics[from.index()];
        let egress_start = now.max(src.egress_free_at);
        let egress_done = egress_start + transfer_time(size, src.bandwidth);
        src.egress_free_at = egress_done;
        src.bytes_sent += size;
        src.msgs_sent += 1;

        let dst = &mut self.nics[to.index()];
        let arrive = egress_done + self.cfg.latency;
        let recv_start = arrive.max(dst.ingress_free_at);
        let recv_done = recv_start + transfer_time(size, dst.bandwidth);
        dst.ingress_free_at = recv_done;
        dst.bytes_recv += size;
        dst.msgs_recv += 1;

        let timing = TransferTiming {
            queue_ns: egress_start.since(now).as_nanos() + recv_start.since(arrive).as_nanos(),
            xfer_ns: egress_done.since(egress_start).as_nanos()
                + recv_done.since(recv_start).as_nanos(),
            wire_ns: self.cfg.latency.as_nanos(),
        };
        Some((recv_done, timing))
    }

    /// Expedited variant of [`Network::schedule_transfer`]: skips *both*
    /// byte pipes (models transport-level control packets — connection
    /// refusals, resets — which are tiny, generated by the kernel, and
    /// delivered regardless of application send/receive backlogs). Pays
    /// wire latency plus the packet's own serialization time, but does
    /// not occupy or wait for either queue.
    pub fn schedule_transfer_expedited(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
    ) -> Option<SimTime> {
        if to == NodeId::EXTERNAL || !self.is_up(to) || !self.is_up(from) {
            return None;
        }
        if from == to || from == NodeId::EXTERNAL {
            return Some(now + SimDuration::from_nanos(1));
        }
        let size = payload_bytes + self.cfg.header_bytes;
        let dst = &mut self.nics[to.index()];
        dst.bytes_recv += size;
        dst.msgs_recv += 1;
        Some(now + self.cfg.latency + transfer_time(size, dst.bandwidth))
    }

    /// Global network parameters.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NetConfig { latency: SimDuration::from_micros(100), header_bytes: 0 })
    }

    #[test]
    fn uncontended_transfer_is_latency_plus_two_pipes() {
        let mut n = net();
        let a = n.add_node(NodeConfig::with_bandwidth(1_000_000)); // 1 MB/s
        let b = n.add_node(NodeConfig::with_bandwidth(1_000_000));
        let t = n.schedule_transfer(SimTime::ZERO, a, b, 1_000_000).unwrap();
        // 1 s egress + 100 µs wire + 1 s ingress.
        assert_eq!(t.as_nanos(), 2_000_100_000);
    }

    #[test]
    fn ingress_contention_serializes_receivers() {
        let mut n = net();
        let a = n.add_node(NodeConfig::unlimited());
        let b = n.add_node(NodeConfig::unlimited());
        let dst = n.add_node(NodeConfig::with_bandwidth(1_000_000));
        let t1 = n.schedule_transfer(SimTime::ZERO, a, dst, 1_000_000).unwrap();
        let t2 = n.schedule_transfer(SimTime::ZERO, b, dst, 1_000_000).unwrap();
        // Second transfer queues behind the first on dst's ingress.
        assert!(t2 > t1);
        assert_eq!((t2 - t1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn egress_contention_serializes_senders() {
        let mut n = net();
        let src = n.add_node(NodeConfig::with_bandwidth(1_000_000));
        let d1 = n.add_node(NodeConfig::unlimited());
        let d2 = n.add_node(NodeConfig::unlimited());
        let t1 = n.schedule_transfer(SimTime::ZERO, src, d1, 500_000).unwrap();
        let t2 = n.schedule_transfer(SimTime::ZERO, src, d2, 500_000).unwrap();
        assert_eq!((t2 - t1).as_nanos(), 500_000_000);
    }

    #[test]
    fn down_nodes_drop_messages() {
        let mut n = net();
        let a = n.add_node(NodeConfig::default());
        let b = n.add_node(NodeConfig::default());
        n.set_down(b);
        assert!(n.schedule_transfer(SimTime::ZERO, a, b, 10).is_none());
        assert!(!n.is_up(b));
        n.set_up(b, SimTime::ZERO + SimDuration::from_secs(1));
        assert!(n.schedule_transfer(SimTime::ZERO + SimDuration::from_secs(1), a, b, 10).is_some());
    }

    #[test]
    fn loopback_and_external_bypass_network() {
        let mut n = net();
        let a = n.add_node(NodeConfig::with_bandwidth(1));
        let t = n.schedule_transfer(SimTime::ZERO, a, a, u64::MAX / 4).unwrap();
        assert!(t.as_nanos() <= 1);
        let t = n.schedule_transfer(SimTime::ZERO, NodeId::EXTERNAL, a, 1 << 40).unwrap();
        assert!(t.as_nanos() <= 1);
    }

    #[test]
    fn header_overhead_is_charged() {
        let mut n = Network::new(NetConfig { latency: SimDuration::ZERO, header_bytes: 1_000_000 });
        let a = n.add_node(NodeConfig::with_bandwidth(1_000_000));
        let b = n.add_node(NodeConfig::unlimited());
        let t = n.schedule_transfer(SimTime::ZERO, a, b, 0).unwrap();
        assert_eq!(t.as_nanos(), 1_000_000_000, "headers alone take 1s at 1MB/s");
    }

    #[test]
    fn expedited_transfers_bypass_both_queues() {
        let mut n = net();
        let a = n.add_node(NodeConfig::with_bandwidth(1_000_000));
        let b = n.add_node(NodeConfig::with_bandwidth(1_000_000));
        // Jam both pipes with a big ordinary transfer.
        n.schedule_transfer(SimTime::ZERO, a, b, 10_000_000).unwrap();
        // An expedited control packet is delivered at ~latency anyway.
        let t = n.schedule_transfer_expedited(SimTime::ZERO, a, b, 0).unwrap();
        assert!(t.as_nanos() < 1_000_000, "expedited delivery at {t}");
        // And it did not push back the data queues.
        let t2 = n.schedule_transfer(SimTime::ZERO, a, b, 0).unwrap();
        assert!(t2.as_secs_f64() > 19.0, "queues unaffected: {t2}");
    }

    #[test]
    fn nic_counters_track_traffic() {
        let mut n = net();
        let a = n.add_node(NodeConfig::default());
        let b = n.add_node(NodeConfig::default());
        n.schedule_transfer(SimTime::ZERO, a, b, 123).unwrap();
        assert_eq!(n.nic(a).msgs_sent, 1);
        assert_eq!(n.nic(a).bytes_sent, 123);
        assert_eq!(n.nic(b).msgs_recv, 1);
        assert_eq!(n.nic(b).bytes_recv, 123);
    }
}
