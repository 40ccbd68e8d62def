//! A checkpoint encoding cut into its sections, so that a pin that
//! moves names what moved instead of only saying that the file did.
//!
//! This crate never depends on the umbrella crate, so the caller
//! decodes (`Checkpoint::from_bytes(bytes)?.record()`) and hands the
//! decoded record in: a delta run's prior set, then each round's sets
//! with their vantages and the plans their targets were drawn from
//! ([`Planned`]). Their span is found by re-encoding them as the
//! checkpoint does, one record ([`write_trace_record`]: their count,
//! their one table, the per-round set counts, then each set, a round
//! set's targets as a tag against its plan), and locating the start of
//! those bytes in the checkpoint; the re-encoding also cuts the span set
//! by set, so a moved trace-set row names the first set whose bytes are
//! not its re-encoding. The fixed parts are the encoding's
//! own: an 8-byte magic and version, an 8-byte configuration digest,
//! and an 8-byte trailer. The scalars before the trace sets are the
//! budgeter's weights and liveness, the discovery set, the subnets, the
//! round reports and the round target lists; the tail after them is
//! the stats, the low-yield streak, the pool, the virtual clock, the
//! delta state (a flag, then the prior store's shard count, the reopen
//! latches and the force queue) and the alias state (a flag, then the
//! alias groups and the tested set; the decoder rebuilds the router
//! graph from those and the trace sets).

use analysis::snapshot::{fnv1a, write_trace_record, Planned};
use analysis::{SnapWriter, TraceSet};
use std::fmt::Write as _;
use std::ops::Range;

/// The sections of a checkpoint, in encoding order. The last row is the
/// whole file, so a table of pins is never weaker than one pin of the
/// file.
pub const SECTIONS: [&str; 7] = [
    "header",
    "config digest",
    "pre-trace scalars",
    "trace sets",
    "tail (stats .. alias state)",
    "trailer",
    "whole file",
];

/// Index of the trace-set row in [`SECTIONS`].
const TRACE_SETS: usize = 3;

/// Bytes of the re-encoded record that locate it in a checkpoint: its
/// set count, its table length and the first words of its table.
const ANCHOR: usize = 64;

/// One pin: a section's length in bytes and its FNV-1a.
pub type Pin = (usize, u64);

/// `lead` and `rounds` re-encoded as the checkpoint writes them, one
/// record, and each set's span in it (the first's with the count, the
/// table and the per-round counts). A record of the first `k` sets, the
/// rounds cut short but as many, ends where the `k`-th set does: its
/// counts take the same bytes.
fn record(lead: Option<&TraceSet>, rounds: &[Vec<Planned<'_>>]) -> (Vec<u8>, Vec<Range<usize>>) {
    let encode = |k: usize| {
        let mut left = k - usize::from(lead.is_some() && k > 0);
        let cut: Vec<Vec<Planned<'_>>> = (rounds.iter())
            .map(|round| {
                let take = left.min(round.len());
                left -= take;
                round[..take].to_vec()
            })
            .collect();
        let mut w = SnapWriter::new();
        write_trace_record(&mut w, lead.filter(|_| k > 0), &cut, 0);
        w.into_bytes()
    };
    let n = usize::from(lead.is_some()) + rounds.iter().map(Vec::len).sum::<usize>();
    let mut start = 0;
    let spans = (1..=n)
        .map(|k| {
            let end = encode(k).len();
            std::mem::replace(&mut start, end)..end
        })
        .collect();
    (encode(n), spans)
}

/// The record's sets in encoding order: the lead, then each round's.
fn record_sets<'a>(lead: Option<&'a TraceSet>, rounds: &[Vec<Planned<'a>>]) -> Vec<&'a TraceSet> {
    lead.into_iter()
        .chain(rounds.iter().flatten().map(|p| p.set))
        .collect()
}

/// The byte ranges of the checkpoint `bytes` that spell its record's
/// plan forms: each round's set count, then each round set's vantage,
/// its target tag and, when the tag is the bitmap's, the bitmap. `lead`
/// and `rounds` are the checkpoint's decoded record, as [`moved`] takes
/// them. An edit property aims at these to reach the decoder's plan
/// refusals, which an edit anywhere in the file seldom does.
pub fn plan_fields(
    bytes: &[u8],
    lead: Option<&TraceSet>,
    rounds: &[Vec<Planned<'_>>],
) -> Vec<Range<usize>> {
    let (record, spans) = record(lead, rounds);
    let start = sections(bytes, &record)[TRACE_SETS].start;
    let words = u32::from_le_bytes(record[4..8].try_into().expect("a table length"));
    let counts = 8 + 16 * words as usize;
    let mut fields: Vec<Range<usize>> = (0..rounds.len())
        .map(|r| counts + 4 * r..counts + 4 * r + 4)
        .collect();
    let first = usize::from(lead.is_some());
    for (i, p) in rounds.iter().flatten().enumerate() {
        let set = match i + first {
            0 => counts + 4 * rounds.len(),
            k => spans[k].start,
        };
        let key = set + 4 + p.set.vantage.len() + 4 + p.set.target_set.len() + 8;
        let tag = key + record[key..].iter().take_while(|&&b| b & 0x80 != 0).count() + 1;
        fields.push(key..tag);
        fields.push(tag..tag + 1);
        if record[tag] == 1 {
            fields.push(tag + 1..tag + 1 + p.plan.len().div_ceil(8));
        }
    }
    for field in &mut fields {
        *field = start + field.start..start + field.end;
    }
    fields
}

/// The byte range of each of [`SECTIONS`] in the checkpoint `bytes`,
/// whose decoded trace sets re-encode to `record`. The record starts at
/// the place its first [`ANCHOR`] bytes occur (the discovery set, in
/// the scalars before it, can spell the same words) that agrees with the
/// re-encoding for the longest prefix, and is as long as the
/// re-encoding. Panics if the record holds no set or its start is not
/// in `bytes`.
fn sections(bytes: &[u8], record: &[u8]) -> [Range<usize>; 7] {
    assert!(record.len() > 4, "a checkpoint with no trace sets");
    let anchor = &record[..record.len().min(ANCHOR)];
    let agrees = |at: usize| {
        let written = &bytes[at..];
        record
            .iter()
            .zip(written)
            .take_while(|(a, b)| a == b)
            .count()
    };
    let start = (16..bytes.len().saturating_sub(anchor.len() - 1))
        .filter(|&at| bytes[at..].starts_with(anchor))
        .max_by_key(|&at| (agrees(at), std::cmp::Reverse(at)))
        .expect("the checkpoint holds its trace sets inline");
    let n = bytes.len();
    let end = (start + record.len()).min(n - 8);
    [
        0..8,
        8..16,
        16..start,
        start..end,
        end..n - 8,
        n - 8..n,
        0..n,
    ]
}

/// Every section of `bytes` whose pin is not the one in `pinned`, a
/// line each with its byte range, then the whole table to re-pin from.
/// `lead` and `rounds` are the checkpoint's decoded record: a delta
/// run's prior set, and each round's sets, each with its vantage and
/// plan. A moved trace-set row also names the first set of the record
/// whose bytes differ from its re-encoding, and the offset inside it, or
/// says that every set re-encodes to its own bytes (the layout or the
/// sets moved, not the round trip). Empty when nothing moved.
pub fn moved(
    bytes: &[u8],
    lead: Option<&TraceSet>,
    rounds: &[Vec<Planned<'_>>],
    pinned: &[Pin; 7],
) -> String {
    let sets = record_sets(lead, rounds);
    let (record, spans) = record(lead, rounds);
    let ranges = sections(bytes, &record);
    let now = ranges.clone().map(|r| (r.len(), fnv1a(&bytes[r])));
    if now == *pinned {
        return String::new();
    }
    let mut out = String::new();
    for (((name, range), pin), was) in SECTIONS.iter().zip(&ranges).zip(&now).zip(pinned) {
        if pin != was {
            let _ = writeln!(
                out,
                "  {name} moved: bytes {range:?}, {pin:?}, pinned {was:?}"
            );
        }
    }
    if now[TRACE_SETS] != pinned[TRACE_SETS] {
        let written = &bytes[ranges[TRACE_SETS].start..];
        let differs = record
            .iter()
            .zip(written)
            .position(|(a, b)| a != b)
            .or((written.len() < record.len()).then_some(written.len()));
        let _ = match differs {
            Some(at) => {
                let k = spans.iter().position(|s| s.contains(&at)).unwrap_or(0);
                let set = sets[k];
                writeln!(
                    out,
                    "    set {k} of {} ({} / {}, bytes {:?} of the row) differs from its \
                     re-encoding at byte {} inside it",
                    sets.len(),
                    set.vantage,
                    set.target_set,
                    spans[k],
                    at - spans[k].start
                )
            }
            None => writeln!(
                out,
                "    each of the {} sets re-encodes to its own bytes",
                sets.len()
            ),
        };
    }
    let _ = writeln!(out, "  now: {now:?}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two sets on one table, the first a lead and the second a round's
    /// whole plan, their record, and a checkpoint-shaped buffer around
    /// it: 16 header bytes, 69 scalar bytes that start with the record's
    /// first 64 (as a discovery set of the table's words can), the
    /// record, 3 tail bytes, an 8-byte trailer.
    fn fixture() -> (Vec<TraceSet>, Vec<u8>, Range<usize>) {
        let set = |vantage: &str, target: u128| {
            let records = (1..=3u8)
                .map(|ttl| yarrp6::ResponseRecord {
                    target: std::net::Ipv6Addr::from(target),
                    responder: std::net::Ipv6Addr::from(0xa + u128::from(ttl)),
                    kind: yarrp6::ResponseKind::TimeExceeded,
                    probe_ttl: Some(ttl),
                    rtt_us: Some(1),
                    recv_us: 0,
                    target_cksum_ok: true,
                })
                .collect();
            TraceSet::from_log(&yarrp6::ProbeLog {
                vantage: vantage.into(),
                target_set: "t".into(),
                records,
                ..Default::default()
            })
        };
        let mut sets = vec![set("A", 1 << 64), set("B", 2 << 64)];
        TraceSet::rebase(&mut Default::default(), sets.iter_mut());
        let (record, _) = record(Some(&sets[0]), &rounds(&sets));
        let mut bytes = vec![0; 16];
        bytes.extend_from_slice(&record[..ANCHOR]);
        bytes.extend_from_slice(&[0; 5]);
        bytes.extend_from_slice(&record);
        bytes.extend_from_slice(&[0; 11]);
        let span = 85..85 + record.len();
        (sets, bytes, span)
    }

    /// One round of the second set, planned as its own targets.
    fn rounds(sets: &[TraceSet]) -> Vec<Vec<Planned<'_>>> {
        let planned = Planned {
            key: 0,
            set: &sets[1],
            plan: sets[1].targets(),
        };
        vec![vec![planned]]
    }

    #[test]
    fn plan_fields_are_the_round_counts_vantages_tags_and_bitmaps() {
        let (sets, bytes, span) = fixture();
        let fields = plan_fields(&bytes, Some(&sets[0]), &rounds(&sets));
        // The round's count after the count and the table (three words),
        // then the second set's vantage (0) and tag (the plan's).
        let counts = span.start + 8 + 16 * sets[0].interner().len();
        assert_eq!(fields[0], counts..counts + 4);
        assert_eq!(bytes[fields[0].clone()], 1u32.to_le_bytes());
        let spelt: Vec<&[u8]> = fields[1..].iter().map(|f| &bytes[f.clone()]).collect();
        assert_eq!(spelt, [[0], [0]]);
        // Under a wider plan the set is a bitmap over it.
        let wider = [sets[1].targets(), &[std::net::Ipv6Addr::from(3u128 << 64)]].concat();
        let planned = Planned {
            key: 0,
            set: &sets[1],
            plan: &wider,
        };
        let rounds = [vec![planned]];
        let (record, _) = record(Some(&sets[0]), &rounds);
        let mut bytes = bytes[..span.start].to_vec();
        bytes.extend_from_slice(&record);
        bytes.extend_from_slice(&[0; 11]);
        let fields = plan_fields(&bytes, Some(&sets[0]), &rounds);
        let spelt: Vec<&[u8]> = fields[1..].iter().map(|f| &bytes[f.clone()]).collect();
        assert_eq!(spelt, [&[0][..], &[1], &[0b01]]);
    }

    #[test]
    fn a_moved_trace_set_row_names_the_first_set_that_differs() {
        let (sets, mut bytes, span) = fixture();
        let (lead, rounds) = (Some(&sets[0]), rounds(&sets));
        let ranges = sections(&bytes, &record(lead, &rounds).0);
        assert_eq!(ranges[TRACE_SETS], span);
        let mut pinned = ranges.map(|r| (r.len(), fnv1a(&bytes[r])));
        assert_eq!(moved(&bytes, lead, &rounds, &pinned), "");
        // A pin of other sets: the row moved, and every set round-trips.
        pinned[TRACE_SETS].1 ^= 1;
        let report = moved(&bytes, lead, &rounds, &pinned);
        assert!(report.contains("trace sets moved"), "{report}");
        assert!(report.contains("each of the 2 sets re-encodes"), "{report}");
        // A byte 30 from the end of the second set differs.
        let (_, spans) = record(lead, &rounds);
        let at = span.start + spans[1].end - 30;
        bytes[at] ^= 1;
        let report = moved(&bytes, lead, &rounds, &pinned);
        let inside = spans[1].len() - 30;
        let want = format!("set 1 of 2 (B / t, bytes {:?} of the row)", spans[1]);
        assert!(report.contains(&want), "{report}");
        assert!(
            report.contains(&format!("at byte {inside} inside it")),
            "{report}"
        );
    }
}
