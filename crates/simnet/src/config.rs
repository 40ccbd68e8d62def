//! Topology generation parameters and scale presets.

use crate::adversarial::AdversarialSchedule;
use crate::fault::FaultSchedule;
use serde::{Deserialize, Serialize};

/// Named scale presets. The paper's Internet had ~56k routed prefixes and
/// ~14k v6 ASes; `Full` approaches that shape, `Small` is the default for
/// experiment binaries, `Tiny` keeps unit tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// A few dozen ASes — for unit/integration tests.
    Tiny,
    /// Hundreds of ASes, ~10^5 host addresses — default for benches.
    Small,
    /// Thousands of ASes, ~10^6 host addresses — closest to the paper.
    Full,
}

/// A scale name that is none of `tiny`, `small`, `full`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownScale(pub String);

impl std::fmt::Display for UnknownScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scale {:?} (tiny, small or full)", self.0)
    }
}

impl std::error::Error for UnknownScale {}

impl std::str::FromStr for Scale {
    type Err = UnknownScale;

    fn from_str(s: &str) -> Result<Scale, UnknownScale> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(UnknownScale(other.to_string())),
        }
    }
}

impl std::fmt::Display for Scale {
    /// The name [`FromStr`](std::str::FromStr) parses back.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        })
    }
}

impl Scale {
    /// The scale `BEHOLDER_SCALE` names, or `default` when it is unset.
    /// Anything else — a typo, an empty string, non-UTF-8 — is an
    /// error, not `default`.
    pub fn from_env_or(default: Scale) -> Result<Scale, UnknownScale> {
        match std::env::var_os("BEHOLDER_SCALE") {
            None => Ok(default),
            Some(v) => v.to_string_lossy().parse(),
        }
    }
}

/// Rate-limit class of a router's ICMPv6 error token bucket.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RateLimitClass {
    /// Sustained error-generation rate (tokens per second).
    pub rate_pps: u32,
    /// Bucket depth (burst tolerance).
    pub burst: u32,
}

/// Configuration for one residential/CPE ISP (the Table 7 EUI-64 clouds).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CpeIspConfig {
    /// Number of subscriber delegations to materialize.
    pub subscribers: usize,
    /// IEEE OUI of the (single) CPE manufacturer deployed by this ISP.
    pub oui: u32,
    /// Prefix length delegated to each subscriber (56 or 64).
    pub delegation_len: u8,
    /// Fraction of subscribers with an active WWW client (feeds the CDN
    /// seed synthesis).
    pub active_client_frac: f64,
}

/// All knobs of the synthetic Internet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Master RNG seed; two configs with equal fields generate identical
    /// topologies.
    pub seed: u64,
    /// Number of tier-1 (clique) transit ASes.
    pub n_tier1: usize,
    /// Number of tier-2 regional transit ASes.
    pub n_tier2: usize,
    /// Number of stub/edge ASes.
    pub n_stub: usize,
    /// Fraction of stubs that additionally peer with the hub AS (the
    /// Hurricane-Electric analogue), raising its path centrality.
    pub hub_peering_frac: f64,
    /// Active /64 LANs materialized per stub AS (with hosts).
    pub lans_per_stub: usize,
    /// Hosts per active LAN.
    pub hosts_per_lan: usize,
    /// Residential ISPs with homogeneous CPE deployments.
    pub cpe_isps: Vec<CpeIspConfig>,
    /// Default router ICMPv6 error rate limit.
    pub default_rl: RateLimitClass,
    /// Aggressive limiter applied to a fraction of routers (§4.2 observes
    /// hops with markedly stronger limiting).
    pub aggressive_rl: RateLimitClass,
    /// Fraction of routers using the aggressive limiter.
    pub aggressive_frac: f64,
    /// Fraction of routers that never send ICMPv6 errors.
    pub unresponsive_frac: f64,
    /// Per-hop probe loss, in thousandths.
    pub loss_milli: u32,
    /// Fraction of stub ASes whose border firewalls drop UDP/TCP probes
    /// toward end hosts (ICMPv6 passes) — drives the §4.2 protocol deltas.
    pub fw_blocks_udp_tcp_frac: f64,
    /// Fraction of stub ASes answering unknown addresses with
    /// administratively-prohibited instead of address-unreachable.
    pub admin_prohibited_frac: f64,
    /// Per-hop one-way latency in microseconds (base; jitter is added).
    pub hop_latency_us: u64,
    /// On-premises (intra-campus) hop chain length for each vantage.
    /// The paper's US-EDU-2 had a notably longer on-prem path.
    pub vantage_onprem_hops: Vec<usize>,
    /// Probability (per mille) that a gateway answers a probe to a
    /// nonexistent IID in an active /64 with address-unreachable — low,
    /// because neighbor-discovery queues throttle these hard.
    pub nohost_du_milli: u32,
    /// Probability (per mille) that the deepest router answers probes to
    /// routed-but-unassigned space with its policy code.
    pub nosubnet_du_milli: u32,
    /// Probability (per mille) of a no-route answer for unrouted targets.
    pub noroute_du_milli: u32,
    /// Probability (per mille) that a residential client host's CPE
    /// firewall silently eats probes that reached the host.
    pub client_silent_milli: u32,
    /// Probability (per mille) that a non-client host is firewalled
    /// silent.
    pub host_fw_milli: u32,
    /// `(vantage index, TTL)` pairs whose hop never answers probes from
    /// that vantage — mirrors the unresponsive hop 5 near the paper's
    /// vantage that shaped its Table 6 fill-mode results. One entry per
    /// vantage that has such a hop; a vantage may appear more than once
    /// (several silent TTLs).
    pub vantage_silent_hops: Vec<(u8, u8)>,
    /// Fraction (per mille) of stub ASes fronted by a middlebox that
    /// rewrites probe destination addresses (NPTv6-style). The quoted
    /// packet inside ICMPv6 errors then carries the *rewritten*
    /// destination — exactly the tampering Yarrp6's target checksum (in
    /// the source port / ICMPv6 identifier) exists to detect.
    pub middlebox_milli: u32,
    /// Scheduled faults on the virtual clock: vantage outage windows,
    /// link blackhole/flap events and mid-campaign responder
    /// disappearances (see [`FaultSchedule`]). Empty by default — the
    /// engine's hot path then skips fault evaluation entirely, keeping
    /// fault-free campaigns bit-identical to earlier releases.
    pub faults: FaultSchedule,
    /// Scheduled hostile responders on the virtual clock: lying quotes,
    /// spoofed sources, zombie middleboxes, duplicate storms and
    /// garbage emitters (see [`AdversarialSchedule`]). Empty by default
    /// — the engine's hot path then skips adversarial evaluation
    /// entirely, keeping benign campaigns bit-identical to earlier
    /// releases.
    pub adversarial: AdversarialSchedule,
}

impl TopologyConfig {
    /// Preset for `Scale::Tiny`.
    pub fn tiny(seed: u64) -> Self {
        TopologyConfig {
            seed,
            n_tier1: 3,
            n_tier2: 8,
            n_stub: 40,
            hub_peering_frac: 0.3,
            lans_per_stub: 6,
            hosts_per_lan: 4,
            cpe_isps: vec![
                CpeIspConfig {
                    subscribers: 400,
                    oui: 0x001122,
                    delegation_len: 64,
                    active_client_frac: 0.5,
                },
                CpeIspConfig {
                    subscribers: 300,
                    oui: 0xa0b1c2,
                    delegation_len: 56,
                    active_client_frac: 0.4,
                },
            ],
            default_rl: RateLimitClass {
                rate_pps: 150,
                burst: 60,
            },
            aggressive_rl: RateLimitClass {
                rate_pps: 30,
                burst: 10,
            },
            aggressive_frac: 0.08,
            unresponsive_frac: 0.05,
            loss_milli: 10,
            fw_blocks_udp_tcp_frac: 0.25,
            admin_prohibited_frac: 0.3,
            hop_latency_us: 2_000,
            vantage_onprem_hops: vec![2, 3, 5],
            nohost_du_milli: 150,
            nosubnet_du_milli: 10,
            noroute_du_milli: 500,
            client_silent_milli: 900,
            host_fw_milli: 150,
            vantage_silent_hops: vec![(0, 5)],
            middlebox_milli: 20,
            faults: FaultSchedule::default(),
            adversarial: AdversarialSchedule::default(),
        }
    }

    /// Preset for `Scale::Small` (default experiment scale).
    pub fn small(seed: u64) -> Self {
        TopologyConfig {
            n_tier1: 6,
            n_tier2: 40,
            n_stub: 600,
            lans_per_stub: 12,
            hosts_per_lan: 6,
            cpe_isps: vec![
                CpeIspConfig {
                    subscribers: 60_000,
                    oui: 0x001122,
                    delegation_len: 64,
                    active_client_frac: 0.5,
                },
                CpeIspConfig {
                    subscribers: 45_000,
                    oui: 0xa0b1c2,
                    delegation_len: 56,
                    active_client_frac: 0.4,
                },
            ],
            ..Self::tiny(seed)
        }
    }

    /// Preset for `Scale::Full`.
    pub(crate) fn full(seed: u64) -> Self {
        TopologyConfig {
            n_tier1: 10,
            n_tier2: 120,
            n_stub: 4_000,
            lans_per_stub: 16,
            hosts_per_lan: 8,
            cpe_isps: vec![
                CpeIspConfig {
                    subscribers: 150_000,
                    oui: 0x001122,
                    delegation_len: 64,
                    active_client_frac: 0.5,
                },
                CpeIspConfig {
                    subscribers: 120_000,
                    oui: 0xa0b1c2,
                    delegation_len: 56,
                    active_client_frac: 0.4,
                },
            ],
            ..Self::tiny(seed)
        }
    }

    /// A *tiled* discovery topology: `tiles` tranches of stub ASes with
    /// dense sequential LAN plans layered onto the tiny skeleton.
    ///
    /// Each tile adds another tranche of enterprise stubs (with their
    /// distribution hierarchies, LAN gateways and alias interfaces), so
    /// the address space holds far more discoverable structure than any
    /// single seed source covers — the workload multi-round adaptive
    /// discovery needs: round 1's seeds reveal a fraction of each tile,
    /// and the feedback loop has real, findable neighbors left to earn.
    /// Transit capacity (tier-2 count) grows with the tile count so
    /// paths stay diverse instead of funneling through one bottleneck.
    pub fn tiled(seed: u64, tiles: usize) -> Self {
        let tiles = tiles.max(1);
        TopologyConfig {
            n_tier2: 8 + 2 * tiles,
            n_stub: 40 * tiles,
            // Denser, mostly-sequential LAN plans per stub: more /64s
            // adjacent to whatever a first round discovers.
            lans_per_stub: 10,
            hosts_per_lan: 3,
            ..Self::tiny(seed)
        }
    }

    /// Preset lookup by [`Scale`].
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        match scale {
            Scale::Tiny => Self::tiny(seed),
            Scale::Small => Self::small(seed),
            Scale::Full => Self::full(seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_monotonically() {
        let t = TopologyConfig::tiny(1);
        let s = TopologyConfig::small(1);
        let f = TopologyConfig::full(1);
        for (a, b) in [(&t, &s), (&s, &f)] {
            assert!(a.n_tier1 < b.n_tier1 && a.n_tier2 < b.n_tier2 && a.n_stub < b.n_stub);
        }
        assert!(t.cpe_isps[0].subscribers < s.cpe_isps[0].subscribers);
        assert!(s.cpe_isps[0].subscribers < f.cpe_isps[0].subscribers);
    }

    #[test]
    fn tiled_grows_with_tile_count() {
        let t1 = TopologyConfig::tiled(1, 1);
        let t4 = TopologyConfig::tiled(1, 4);
        assert_eq!(t4.n_stub, 4 * t1.n_stub);
        assert!(t4.n_tier2 > t1.n_tier2);
        let tiny = TopologyConfig::tiny(1);
        assert!(
            t1.n_tier1 >= tiny.n_tier1 && t1.n_tier2 >= tiny.n_tier2 && t1.n_stub >= tiny.n_stub
        );
        // Zero clamps to one tile instead of generating a degenerate net.
        assert_eq!(TopologyConfig::tiled(1, 0).n_stub, 40);
    }

    #[test]
    fn scale_names_parse_and_typos_do_not() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
            assert_eq!(scale.to_string().parse(), Ok(scale));
        }
        assert_eq!("small".parse(), Ok(Scale::Small));
        for typo in ["smal", "", "Small", "tiny "] {
            assert_eq!(typo.parse::<Scale>(), Err(UnknownScale(typo.into())));
        }
    }

    #[test]
    fn three_vantages_configured() {
        assert_eq!(TopologyConfig::tiny(0).vantage_onprem_hops.len(), 3);
        // US-EDU-2 analogue has the longest on-prem chain.
        let hops = TopologyConfig::tiny(0).vantage_onprem_hops;
        assert!(hops[2] > hops[0]);
    }
}
