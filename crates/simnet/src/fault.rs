//! Virtual-time fault injection: scheduled outages layered over the
//! deterministic topology.
//!
//! A [`FaultSchedule`] describes *when* parts of the synthetic Internet
//! misbehave, on the same microsecond virtual clock every probe
//! carries. Three fault classes cover the failure modes a long-running
//! topology campaign meets in practice:
//!
//! * [`VantageOutage`] — the measurement host itself goes dark for a
//!   window (uplink loss, maintenance, a revoked VM): every probe the
//!   vantage injects inside the window vanishes;
//! * [`LinkFault`] — a router's inbound link blackholes (or flaps on a
//!   square wave) for a window: probes whose forward path traverses the
//!   router are dropped in transit;
//! * [`ResponderDown`] — a router keeps forwarding but stops answering
//!   after a point in time (control-plane filtering turned on
//!   mid-campaign): its ICMPv6 errors and direct-interface echoes stop.
//!
//! The schedule rides on [`TopologyConfig`](crate::config::TopologyConfig)
//! and is evaluated by [`Engine`](crate::engine::Engine) per probe,
//! charging one of the `fault_*` counters of
//! [`EngineStats`](crate::engine::EngineStats) per dropped packet.
//! Everything is pure arithmetic on the virtual clock — no wall time,
//! no RNG — so faulted campaigns are as reproducible as clean ones.
//! [`Engine::set_fault_offset`](crate::engine::Engine::set_fault_offset)
//! shifts the evaluation clock, which is how a retried campaign
//! (starting later on the supervisor's clock) sees the *rest* of an
//! outage instead of replaying it from the start.

use crate::topology::RouterId;
use serde::{Deserialize, Serialize};

/// One vantage's dark window: probes injected by `vantage` with a
/// virtual send time in `[from_us, until_us)` are dropped at the
/// source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VantageOutage {
    /// Vantage index (into the topology's vantage table).
    pub vantage: u8,
    /// Window start (inclusive), µs on the virtual clock.
    pub from_us: u64,
    /// Window end (exclusive). `u64::MAX` never ends.
    pub until_us: u64,
}

/// A faulty inbound link of one router: probes whose forward path
/// traverses `router` while the fault is active are dropped in transit.
///
/// With `flap_period_us == 0` the link is hard down (blackhole) for the
/// whole window. Otherwise it flaps on a square wave: down for the
/// first `flap_period_us`, up for the next, and so on until `until_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFault {
    /// The router whose inbound link fails.
    pub router: RouterId,
    /// Window start (inclusive), µs on the virtual clock.
    pub from_us: u64,
    /// Window end (exclusive). `u64::MAX` never ends.
    pub until_us: u64,
    /// Square-wave half-period; `0` means blackhole (down throughout).
    pub flap_period_us: u64,
}

/// A responder that disappears mid-campaign: from `after_us` on,
/// `router` still forwards but never answers again — no ICMPv6 errors,
/// no direct-interface echoes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponderDown {
    /// The router that goes silent.
    pub router: RouterId,
    /// First µs at which the router no longer answers.
    pub after_us: u64,
}

/// Which kind of link fault dropped a probe — callers charge the
/// matching [`EngineStats`](crate::engine::EngineStats) counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkFaultKind {
    /// The link was hard down (`flap_period_us == 0`).
    Blackhole,
    /// The link was in a down half-cycle of its flap wave.
    Flap,
}

/// A deterministic, virtual-time schedule of injected faults.
///
/// Attach one to [`TopologyConfig::faults`](crate::config::TopologyConfig::faults);
/// the engine evaluates it per probe. The default (empty) schedule is a
/// guaranteed no-op: the engine's hot path skips all fault checks when
/// the schedule is empty, so fault-free campaigns stay
/// bit-identical to builds without this module.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Per-vantage dark windows.
    pub vantage_outages: Vec<VantageOutage>,
    /// Link blackhole/flap windows.
    pub link_faults: Vec<LinkFault>,
    /// Responders that disappear mid-campaign.
    pub responder_downs: Vec<ResponderDown>,
}

impl FaultSchedule {
    /// No scheduled faults at all — the engine skips fault evaluation.
    pub(crate) fn is_empty(&self) -> bool {
        self.vantage_outages.is_empty()
            && self.link_faults.is_empty()
            && self.responder_downs.is_empty()
    }

    /// Adds a vantage dark window (builder style).
    pub fn with_vantage_outage(mut self, vantage: u8, from_us: u64, until_us: u64) -> Self {
        self.vantage_outages.push(VantageOutage {
            vantage,
            from_us,
            until_us,
        });
        self
    }

    /// Adds a flapping link (builder style): down/up square wave with
    /// half-period `flap_period_us`, starting down at `from_us`; a zero
    /// period is a blackhole for the whole window.
    pub fn with_link_flap(
        mut self,
        router: RouterId,
        from_us: u64,
        until_us: u64,
        flap_period_us: u64,
    ) -> Self {
        self.link_faults.push(LinkFault {
            router,
            from_us,
            until_us,
            flap_period_us,
        });
        self
    }

    /// Adds a mid-campaign responder disappearance (builder style).
    pub fn with_responder_down(mut self, router: RouterId, after_us: u64) -> Self {
        self.responder_downs
            .push(ResponderDown { router, after_us });
        self
    }

    /// Is `vantage` inside a dark window at `now_us`?
    pub(crate) fn vantage_down(&self, vantage: u8, now_us: u64) -> bool {
        self.vantage_outages
            .iter()
            .any(|o| o.vantage == vantage && o.from_us <= now_us && now_us < o.until_us)
    }

    /// Is `router`'s inbound link down at `now_us` — and if so, which
    /// fault kind gets the drop?
    pub(crate) fn link_down(&self, router: RouterId, now_us: u64) -> Option<LinkFaultKind> {
        for f in &self.link_faults {
            if f.router != router || now_us < f.from_us || now_us >= f.until_us {
                continue;
            }
            if f.flap_period_us == 0 {
                return Some(LinkFaultKind::Blackhole);
            }
            // Square wave, down-first: down on even half-cycles.
            if ((now_us - f.from_us) / f.flap_period_us).is_multiple_of(2) {
                return Some(LinkFaultKind::Flap);
            }
        }
        None
    }

    /// Has `router` stopped answering by `now_us`?
    pub(crate) fn responder_down(&self, router: RouterId, now_us: u64) -> bool {
        self.responder_downs
            .iter()
            .any(|d| d.router == router && now_us >= d.after_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_a_no_op() {
        let s = FaultSchedule::default();
        assert!(s.is_empty());
        assert!(!s.vantage_down(0, 0));
        assert!(s.link_down(RouterId(0), 0).is_none());
        assert!(!s.responder_down(RouterId(0), u64::MAX));
    }

    #[test]
    fn vantage_window_is_half_open() {
        let s = FaultSchedule::default().with_vantage_outage(1, 100, 200);
        assert!(!s.is_empty());
        assert!(!s.vantage_down(1, 99));
        assert!(s.vantage_down(1, 100));
        assert!(s.vantage_down(1, 199));
        assert!(!s.vantage_down(1, 200));
        assert!(!s.vantage_down(0, 150), "other vantages unaffected");
    }

    #[test]
    fn blackhole_and_flap_semantics() {
        let r = RouterId(7);
        let s = FaultSchedule::default()
            .with_link_flap(r, 1_000, 2_000, 0)
            .with_link_flap(RouterId(8), 0, 10_000, 100);
        assert_eq!(s.link_down(r, 1_500), Some(LinkFaultKind::Blackhole));
        assert_eq!(s.link_down(r, 2_000), None);
        // Flap: down on [0,100), up on [100,200), down on [200,300)…
        assert_eq!(s.link_down(RouterId(8), 50), Some(LinkFaultKind::Flap));
        assert_eq!(s.link_down(RouterId(8), 150), None);
        assert_eq!(s.link_down(RouterId(8), 250), Some(LinkFaultKind::Flap));
        assert_eq!(s.link_down(RouterId(8), 10_050), None, "window over");
    }

    #[test]
    fn responder_down_is_permanent() {
        let r = RouterId(3);
        let s = FaultSchedule::default().with_responder_down(r, 500);
        assert!(!s.responder_down(r, 499));
        assert!(s.responder_down(r, 500));
        assert!(s.responder_down(r, u64::MAX));
        assert!(!s.responder_down(RouterId(4), u64::MAX));
    }
}
