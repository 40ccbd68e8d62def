//! The address-keyed left fold [`TraceSet::merge_all`] is pinned
//! against (`analysis`'s `tests/merge_props.rs`).
//!
//! A [`Merged`] is everything a trace set says, spelled in addresses
//! and names instead of columns and ids. [`Merged::of`] reads a set
//! through its public readers only — `iter()`, `interner()` and the
//! three public fields — and [`merge_fold`] unions such models two at a
//! time in a `BTreeMap` keyed by target. Nothing here touches the
//! library's merge code or its column layout, so
//! `Merged::of(&TraceSet::merge_all(sets)) == merge_fold(sets)` compares
//! two implementations that share no line.
//!
//! A merged set does not record which input each trace came from, so
//! first-wins ownership is pinned by content: a surviving trace's
//! hops, unreachables and `reached_at` are its first holder's. Which
//! vantage found what is read off the per-vantage sets themselves.

use analysis::TraceSet;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv6Addr;

/// One trace of a [`Merged`] model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedTrace {
    /// `(ttl, interface)`, TTL ascending.
    pub hops: Vec<(u8, Ipv6Addr)>,
    /// `(ttl, responder)`, in the set's order.
    pub unreachable: Vec<(u8, Ipv6Addr)>,
    /// Smallest TTL at which the destination answered.
    pub reached_at: Option<u8>,
}

/// A trace set as plain values. Two sets with equal models are equal
/// column for column, interner ids included (`responders` is the
/// interner in id order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Merged {
    /// `+`-joined campaign vantage names.
    pub vantage: String,
    /// `+`-joined target-set names.
    pub target_set: String,
    /// Records dropped for failing the target checksum.
    pub rewritten_dropped: u64,
    /// Every responder any input knew, in interner-id order.
    pub responders: Vec<Ipv6Addr>,
    /// Target word → its trace.
    pub traces: BTreeMap<u128, MergedTrace>,
}

impl Merged {
    /// The model of `set`.
    pub fn of(set: &TraceSet) -> Merged {
        let words = set.interner().words();
        Merged {
            vantage: set.vantage.to_string(),
            target_set: set.target_set.to_string(),
            rewritten_dropped: set.rewritten_dropped,
            responders: words.iter().map(|&w| Ipv6Addr::from(w)).collect(),
            traces: set
                .iter()
                .map(|t| {
                    let trace = MergedTrace {
                        hops: t.hops().collect(),
                        unreachable: t.unreachable().collect(),
                        reached_at: t.reached_at(),
                    };
                    (u128::from(t.target()), trace)
                })
                .collect(),
        }
    }

    /// The union of `self` and `other`, `self` winning every target
    /// both traced.
    fn merge(mut self, other: Merged) -> Merged {
        self.vantage = join(&self.vantage, &other.vantage);
        self.target_set = join(&self.target_set, &other.target_set);
        self.rewritten_dropped += other.rewritten_dropped;
        // Responders: mine keep their ids, the other side's unseen ones
        // follow in its order — winners and dedup losers alike.
        let known: HashSet<Ipv6Addr> = self.responders.iter().copied().collect();
        let fresh = other.responders.iter().filter(|a| !known.contains(a));
        self.responders.extend(fresh);
        for (target, trace) in other.traces {
            self.traces.entry(target).or_insert(trace);
        }
        self
    }
}

/// The distinct `+`-separated components of `a` then `b`, first
/// appearance first.
fn join(a: &str, b: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for part in a.split('+').chain(b.split('+')) {
        if !part.is_empty() && !parts.contains(&part) {
            parts.push(part);
        }
    }
    parts.join("+")
}

/// What [`TraceSet::merge_all`] must return for `sets`, as a model:
/// the left fold of the two-set union over them, earlier sets winning
/// shared targets; the empty model for no sets, the one set's own for
/// one.
pub fn merge_fold<'a>(sets: impl IntoIterator<Item = &'a TraceSet>) -> Merged {
    sets.into_iter()
        .map(Merged::of)
        .reduce(Merged::merge)
        .unwrap_or_default()
}
