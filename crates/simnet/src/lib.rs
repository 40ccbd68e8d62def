//! A deterministic synthetic IPv6 Internet for active-measurement research.
//!
//! The paper measures the real IPv6 Internet from three vantage points;
//! this crate substitutes a packet-level simulator that reproduces the
//! *structural* phenomena the paper's experiments depend on:
//!
//! * a transit hierarchy of ASes announcing BGP prefixes, with a
//!   Hurricane-Electric-like hub present on a large share of paths;
//! * per-AS address plans: infrastructure prefixes for router interfaces,
//!   hierarchical "distribution" subnets (the §6 ground truth) descending
//!   to /64 LANs with SLAAC, privacy and low-byte hosts;
//! * two large residential ISPs whose subscriber CPE routers respond from
//!   EUI-64 addresses — the Table 7 "EUI-64 clouds";
//! * mandated ICMPv6 rate limiting: every error message consumes a token
//!   from the originating router's bucket (RFC 4443 §2.4(f)), with
//!   heterogeneous, sometimes aggressive, per-router rates (§4.2);
//! * per-flow ECMP load balancing keyed on the probe's constant headers,
//!   so Paris-style probes see stable paths;
//! * middlebox/firewall policies that treat ICMPv6, UDP and TCP probes
//!   differently (§4.2 protocol trials).
//!
//! Everything is driven by a **virtual clock** (microseconds since campaign
//! start) and a seeded RNG, so runs are bit-for-bit reproducible.
//!
//! The simulator speaks *wire bytes*: the [`engine::Engine`] accepts a
//! serialized probe packet and returns the serialized response (if any),
//! exactly as a raw socket would — the prober on top stays honest.

#![warn(unreachable_pub)]

mod adversarial;
pub mod config;
mod engine;
mod fault;
pub mod flow;
pub mod generate;
mod pathcache;
mod ratelimit;
pub mod route;
pub mod topology;

pub use adversarial::{AdversarialClass, AdversarialSchedule};
pub use config::{Scale, TopologyConfig};
pub use engine::{prefetch, Delivery, Engine, EngineStats};
pub use fault::FaultSchedule;
pub use pathcache::Flow;
pub use topology::{RouterId, Topology};
