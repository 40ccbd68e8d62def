//! Yarrp6 — stateless, randomized, high-speed IPv6 topology probing
//! (the paper's §4), plus the comparison probers.
//!
//! The central idea: instead of tracing one path at a time, enumerate the
//! whole `(target × TTL)` probe space in a **keyed random permutation**
//! ([`perm`]), so consecutive probes land on unrelated routers and no
//! token bucket (RFC 4443 ICMPv6 rate limiting) sees a burst. Probes
//! carry their own state ([`v6packet::probe`]); responses are matched
//! purely from the ICMPv6 quotation, so the prober holds *no*
//! per-destination state and probing speed is bounded by the wire, not
//! by memory.
//!
//! Modules:
//!
//! * [`perm`] — Feistel-network permutation with cycle-walking;
//! * [`record`] — response records and probe logs (the campaign output);
//! * [`yarrp`] — the Yarrp6 prober: randomized order, fill mode (§4.1),
//!   optional neighborhood state (§4.2);
//! * [`sequential`] — a scamper-like stateful ICMP-Paris prober with the
//!   per-TTL synchronized bursts the paper observed (§4.2, Fig. 5);
//! * [`doubletree`] — the Doubletree comparator (§4.2), including its
//!   backward-probing pathology under rate limiting;
//! * [`sink`] — record sinks: where decoded responses go (a buffered
//!   `Vec` filed into a [`ProbeLog`], or fixed-size chunks over a
//!   bounded channel to a concurrent consumer);
//! * [`campaign`] — drivers that bind probers to vantages and target
//!   sets: batch (a [`ProbeLog`] per campaign) and streaming (probe →
//!   analyze without materializing the log), one or many on a worker
//!   pool, failures reported as [`CampaignError`]s, and [`supervise`],
//!   the loop that retries failed or blacked-out attempts with
//!   deterministic virtual-time backoff.

#![warn(unreachable_pub)]

pub mod addrset;
pub mod campaign;
pub mod doubletree;
pub mod perm;
pub mod record;
pub mod sequential;
pub mod sink;
pub mod yarrp;

pub use campaign::{
    run_campaign, run_campaigns_streaming, supervise, try_run_campaigns_parallel, Attempt,
    CampaignError, CampaignSpec, RetryPolicy, Supervised, SupervisedCampaign,
};
pub use record::{DecodeError, DecodeStats, ProbeLog, ResponseKind, ResponseRecord};
pub use sink::{RecordSink, RecordStream, SinkDisconnected, StreamConfig};
pub use yarrp::YarrpConfig;

// Re-export the probe protocol enum: it is part of this crate's API.
pub use v6packet::probe::Protocol;
