//! Scenario description: topology + flows + bandwidth + seed.

use mwn_aodv::AodvConfig;
use mwn_mac80211::MacParams;
use mwn_phy::{DataRate, RangeModel};
use mwn_pkt::NodeId;
use mwn_sim::SimDuration;
use mwn_tcp::{AckPolicy, Flavor, TcpConfig};
use mwn_traffic::TrafficModel;

use crate::mobility::RandomWaypoint;
use crate::network::Network;
use crate::topology::{self, Topology};

/// The transport protocol of one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    /// TCP with the given congestion-control flavor, configuration and
    /// receiver ACK policy.
    Tcp {
        /// NewReno or Vegas.
        flavor: Flavor,
        /// Window and timer parameters.
        config: TcpConfig,
        /// Per-packet ACKs or dynamic ACK thinning.
        ack_policy: AckPolicy,
    },
    /// The paper's paced UDP: CBR with a fixed inter-packet gap.
    PacedUdp {
        /// Time between successive packet transmissions.
        gap: SimDuration,
    },
}

impl Transport {
    /// TCP Vegas with `α = β = γ = alpha` (the paper's tuning).
    pub fn vegas(alpha: u32) -> Self {
        Transport::Tcp {
            flavor: Flavor::Vegas,
            config: TcpConfig::paper(alpha),
            ack_policy: AckPolicy::EveryPacket,
        }
    }

    /// TCP Vegas with dynamic ACK thinning.
    pub fn vegas_thinning(alpha: u32) -> Self {
        Transport::Tcp {
            flavor: Flavor::Vegas,
            config: TcpConfig::paper(alpha),
            ack_policy: AckPolicy::Thinning,
        }
    }

    /// Classic TCP Reno with per-packet ACKs (extension variant).
    pub fn reno() -> Self {
        Transport::Tcp {
            flavor: Flavor::Reno,
            config: TcpConfig::paper(2),
            ack_policy: AckPolicy::EveryPacket,
        }
    }

    /// TCP Tahoe with per-packet ACKs (extension variant).
    pub fn tahoe() -> Self {
        Transport::Tcp {
            flavor: Flavor::Tahoe,
            config: TcpConfig::paper(2),
            ack_policy: AckPolicy::EveryPacket,
        }
    }

    /// TCP NewReno with per-packet ACKs.
    pub fn newreno() -> Self {
        Transport::Tcp {
            flavor: Flavor::NewReno,
            config: TcpConfig::paper(2),
            ack_policy: AckPolicy::EveryPacket,
        }
    }

    /// TCP NewReno with dynamic ACK thinning.
    pub fn newreno_thinning() -> Self {
        Transport::Tcp {
            flavor: Flavor::NewReno,
            config: TcpConfig::paper(2),
            ack_policy: AckPolicy::Thinning,
        }
    }

    /// TCP NewReno with an artificially bounded window (Fu et al.'s
    /// optimal `MaxWin`; the paper finds `MaxWin = 3` best for 7 hops).
    pub fn newreno_optimal_window(max_win: u32) -> Self {
        Transport::Tcp {
            flavor: Flavor::NewReno,
            config: TcpConfig::paper(2).with_max_window(max_win),
            ack_policy: AckPolicy::EveryPacket,
        }
    }

    /// Paced UDP with inter-packet gap `gap`.
    pub fn paced_udp(gap: SimDuration) -> Self {
        Transport::PacedUdp { gap }
    }

    /// A short human-readable label ("Vegas", "NewReno ACK Thinning", …).
    pub fn label(&self) -> String {
        match self {
            Transport::Tcp {
                flavor,
                config,
                ack_policy,
            } => {
                let mut s = match flavor {
                    Flavor::Vegas => format!("Vegas a={}", config.alpha),
                    Flavor::NewReno => "NewReno".to_string(),
                    Flavor::Reno => "Reno".to_string(),
                    Flavor::Tahoe => "Tahoe".to_string(),
                };
                if config.wmax != 64 {
                    s.push_str(&format!(" MaxWin={}", config.wmax));
                }
                if *ack_policy == AckPolicy::Thinning {
                    s.push_str(" +thin");
                }
                s
            }
            Transport::PacedUdp { gap } => format!("PacedUDP t={gap}"),
        }
    }
}

/// An open-loop workload attached to a scenario: the [`TrafficModel`]
/// describes *when* finite flows arrive and *what* they look like; the
/// [`Transport`] is the protocol every traffic flow runs (classes are
/// workload classes, not protocol variants — sweeping transports is the
/// job harness's axis).
///
/// Traffic coexists with the persistent [`FlowSpec`] list: persistent
/// flows occupy the low flow-table slots for the whole run, traffic
/// flows churn through slots above them.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Arrival processes, sizes, endpoint skew and rate modulation.
    pub model: TrafficModel,
    /// Transport protocol of every traffic flow.
    pub transport: Transport,
}

/// One end-to-end flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Transport protocol.
    pub transport: Transport,
}

/// A complete simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Node placement.
    pub topology: Topology,
    /// Concurrent flows.
    pub flows: Vec<FlowSpec>,
    /// PHY data rate for data frames (control stays at 1 Mbit/s).
    pub bandwidth: DataRate,
    /// Radio ranges (defaults to the paper's 250 / 550 / 550 m).
    pub ranges: RangeModel,
    /// AODV parameters.
    pub aodv: AodvConfig,
    /// Overrides the MAC parameters derived from `bandwidth` (set by the
    /// MAC ablations of [`crate::jobs::Ablation`] and by fault tests).
    pub mac_override: Option<MacParams>,
    /// Node mobility (extension): `None` keeps the paper's static
    /// networks; `Some` runs random waypoint.
    pub mobility: Option<RandomWaypoint>,
    /// Open-loop traffic workload (extension): `None` keeps the paper's
    /// persistent-flows-only model.
    pub traffic: Option<TrafficSpec>,
    /// Root RNG seed; every run is a pure function of (scenario, seed).
    pub seed: u64,
}

impl Scenario {
    /// A scenario over an arbitrary topology.
    pub fn new(topology: Topology, flows: Vec<FlowSpec>, bandwidth: DataRate, seed: u64) -> Self {
        Scenario {
            topology,
            flows,
            bandwidth,
            ranges: RangeModel::paper(),
            aodv: AodvConfig::default(),
            mac_override: None,
            mobility: None,
            traffic: None,
            seed,
        }
    }

    /// An open-loop traffic scenario: `nodes` nodes placed uniformly at
    /// the paper's density (the [`topology::random_paper`] field scaled
    /// to the node count, resampled until connected), no persistent
    /// flows, all load coming from `model` over `transport`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or the model fails
    /// [`TrafficModel::validate`].
    pub fn open_loop(
        nodes: usize,
        model: TrafficModel,
        transport: Transport,
        bandwidth: DataRate,
        seed: u64,
    ) -> Self {
        assert!(nodes >= 2, "traffic needs at least two nodes");
        model
            .validate()
            .unwrap_or_else(|e| panic!("invalid traffic model: {e}"));
        // One node per ~20 800 m² with the paper's 2.5:1 aspect ratio.
        let area = nodes as f64 * 20_800.0;
        let width = (area * 2.5).sqrt();
        let height = area / width;
        let topology = topology::random(nodes, width, height, 250.0, seed);
        let mut s = Scenario::new(topology, Vec::new(), bandwidth, seed);
        s.traffic = Some(TrafficSpec { model, transport });
        s
    }

    /// The paper's h-hop chain with a single flow from end to end
    /// (Figure 1 / Section 4.3).
    pub fn chain(hops: usize, bandwidth: DataRate, transport: Transport, seed: u64) -> Self {
        let topology = topology::chain(hops);
        let flows = vec![FlowSpec {
            src: NodeId(0),
            dst: NodeId(hops as u32),
            transport,
        }];
        Scenario::new(topology, flows, bandwidth, seed)
    }

    /// The paper's 21-node grid with six competing flows (Figure 15):
    /// three horizontal (west → east along each row) and three vertical
    /// (south → north along columns 1, 3, 5).
    pub fn grid6(bandwidth: DataRate, transport: Transport, seed: u64) -> Self {
        let cols = 7;
        let topology = topology::grid21();
        let mut flows = Vec::new();
        // FTP 1-3: horizontal.
        for row in 0..3 {
            flows.push(FlowSpec {
                src: topology::grid_node(cols, 0, row),
                dst: topology::grid_node(cols, 6, row),
                transport,
            });
        }
        // FTP 4-6: vertical, bottom row to top row.
        for col in [1, 3, 5] {
            flows.push(FlowSpec {
                src: topology::grid_node(cols, col, 2),
                dst: topology::grid_node(cols, col, 0),
                transport,
            });
        }
        Scenario::new(topology, flows, bandwidth, seed)
    }

    /// The paper's random scenario: 120 nodes on 2500 × 1000 m² with ten
    /// concurrent flows between randomly selected distinct endpoints.
    pub fn random10(bandwidth: DataRate, transport: Transport, seed: u64) -> Self {
        let topology = topology::random_paper(seed);
        let flows = random_flows(&topology, 10, transport, seed);
        Scenario::new(topology, flows, bandwidth, seed)
    }

    /// A large random scenario at the paper's density: any `nodes ≥ 2`
    /// on the [`topology::random_large`] field with ten random
    /// distinct-endpoint flows, drawn exactly like
    /// [`Scenario::random10`]. Used by the `random200-mobility` /
    /// `random500-mobility` bench scenarios and, via the city-scale
    /// sizes, by `random5k-mobility` / `random20k` / `random50k`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn random_large(
        nodes: usize,
        bandwidth: DataRate,
        transport: Transport,
        seed: u64,
    ) -> Self {
        let topology = topology::random_large(nodes, seed);
        let flows = random_flows(&topology, 10, transport, seed);
        Scenario::new(topology, flows, bandwidth, seed)
    }

    /// The mobility extension's layout (after Holland & Vaidya): 30 nodes
    /// placed uniformly on a 1500 × 300 m strip with the fixed flows
    /// 0 → 15, 7 → 22 and 29 → 3, moving by random waypoint at up to
    /// `speed` m/s without pauses; `speed = 0` keeps them static. Node
    /// trajectories derive from `seed`, so scenarios that share it face
    /// identical movement.
    pub fn mobile_strip(speed: u32, bandwidth: DataRate, transport: Transport, seed: u64) -> Self {
        let topology = topology::random(30, 1500.0, 300.0, 250.0, seed);
        let flows = [(0, 15), (7, 22), (29, 3)]
            .map(|(src, dst)| FlowSpec {
                src: NodeId(src),
                dst: NodeId(dst),
                transport,
            })
            .into();
        let mut s = Scenario::new(topology, flows, bandwidth, seed);
        if speed > 0 {
            s.mobility = Some(RandomWaypoint::strip(f64::from(speed), SimDuration::ZERO));
        }
        s
    }

    /// The metro preset: a city-scale mesh of fixed rooftop nodes — a
    /// [`Scenario::random_large`] field driven with the expanding-ring
    /// AODV configuration ([`AodvConfig::city`]), so route discoveries
    /// walk TTL rings instead of flooding all `nodes` routers. The
    /// canonical paper scenarios keep the flooding default; this preset
    /// (and its `metro200-newreno-11m` golden case) pins the ring
    /// machinery's behavior.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn metro(nodes: usize, bandwidth: DataRate, transport: Transport, seed: u64) -> Self {
        let mut s = Scenario::random_large(nodes, bandwidth, transport, seed);
        s.aodv = AodvConfig::city();
        s
    }

    /// The 802.11b MAC parameters implied by the configured bandwidth
    /// (or the explicit override, if set).
    pub fn mac_params(&self) -> MacParams {
        self.mac_override
            .unwrap_or_else(|| MacParams::ieee80211b(self.bandwidth))
    }

    /// Builds the runnable [`Network`].
    ///
    /// # Panics
    ///
    /// Panics if a flow references a node outside the topology or has
    /// identical endpoints.
    pub fn build(&self) -> Network {
        for f in &self.flows {
            assert!(
                f.src.index() < self.topology.len() && f.dst.index() < self.topology.len(),
                "flow endpoints must lie in the topology"
            );
            assert_ne!(f.src, f.dst, "flow endpoints must differ");
        }
        Network::build(self)
    }
}

/// `count` flows between randomly selected distinct endpoint pairs of
/// `topology`, from the seed's dedicated flow-selection stream (so flow
/// draws do not perturb topology or runtime randomness).
fn random_flows(
    topology: &Topology,
    count: usize,
    transport: Transport,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut rng = mwn_sim::Pcg32::with_stream(seed, 0xF10A_5EED);
    let n = topology.len() as u32;
    let mut flows = Vec::new();
    let mut used = std::collections::HashSet::new();
    while flows.len() < count {
        let src = NodeId(rng.gen_range_u32(n));
        let dst = NodeId(rng.gen_range_u32(n));
        if src == dst || !used.insert((src, dst)) {
            continue;
        }
        flows.push(FlowSpec {
            src,
            dst,
            transport,
        });
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_scenario_shape() {
        let s = Scenario::chain(7, DataRate::MBPS_2, Transport::vegas(2), 1);
        assert_eq!(s.topology.len(), 8);
        assert_eq!(s.flows.len(), 1);
        assert_eq!(s.flows[0].dst, NodeId(7));
    }

    #[test]
    fn grid_scenario_has_six_flows() {
        let s = Scenario::grid6(DataRate::MBPS_11, Transport::newreno(), 1);
        assert_eq!(s.topology.len(), 21);
        assert_eq!(s.flows.len(), 6);
        // Horizontal flows span 6 hops, vertical 2.
        assert_eq!(s.flows[0].src, NodeId(0));
        assert_eq!(s.flows[0].dst, NodeId(6));
        assert_eq!(s.flows[3].src, NodeId(15));
        assert_eq!(s.flows[3].dst, NodeId(1));
    }

    #[test]
    fn random_scenario_has_ten_distinct_flows() {
        let s = Scenario::random10(DataRate::MBPS_2, Transport::vegas(2), 42);
        assert_eq!(s.flows.len(), 10);
        for f in &s.flows {
            assert_ne!(f.src, f.dst);
        }
        // Deterministic in the seed.
        let s2 = Scenario::random10(DataRate::MBPS_2, Transport::vegas(2), 42);
        assert_eq!(s.flows, s2.flows);
    }

    #[test]
    fn random_large_scenario_has_ten_distinct_flows() {
        let s = Scenario::random_large(200, DataRate::MBPS_2, Transport::newreno(), 5);
        assert_eq!(s.topology.len(), 200);
        assert_eq!(s.flows.len(), 10);
        for f in &s.flows {
            assert_ne!(f.src, f.dst);
            assert!(f.src.index() < 200 && f.dst.index() < 200);
        }
        let s2 = Scenario::random_large(200, DataRate::MBPS_2, Transport::newreno(), 5);
        assert_eq!(s.flows, s2.flows, "deterministic in the seed");
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(Transport::vegas(2).label(), "Vegas a=2");
        assert_eq!(Transport::vegas_thinning(3).label(), "Vegas a=3 +thin");
        assert_eq!(Transport::newreno().label(), "NewReno");
        assert_eq!(Transport::newreno_thinning().label(), "NewReno +thin");
        assert_eq!(
            Transport::newreno_optimal_window(3).label(),
            "NewReno MaxWin=3"
        );
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_flow_rejected() {
        let t = topology::chain(2);
        let flows = vec![FlowSpec {
            src: NodeId(1),
            dst: NodeId(1),
            transport: Transport::newreno(),
        }];
        Scenario::new(t, flows, DataRate::MBPS_2, 1).build();
    }
}
