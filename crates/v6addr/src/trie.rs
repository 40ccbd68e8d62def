//! A binary prefix trie over IPv6 prefixes.
//!
//! Each node corresponds to a prefix; values may be stored at any node.
//! Supports exact lookup, longest-prefix match (LPM), covered-prefix
//! iteration, and value mutation. This is the workhorse behind the BGP
//! table, ground-truth subnet plans, and kIP aggregation.
//!
//! The trie is path-compressed-free (one bit per level) for simplicity;
//! IPv6 topology prefixes are short (≤ /64 in practice) and node counts in
//! this workload are in the low millions at most, so the simple layout is
//! fast enough and easy to verify. Nodes live in a flat arena (`Vec`)
//! addressed by `u32` indices to keep the structure cache-friendly and
//! allocation-light.
//!
//! One bit per level makes a cold longest-prefix match 48–64 dependent
//! loads. Callers that look addresses up *in order* (a prober opening
//! one flow per sorted target) keep a [`Finger`] and pay only for the
//! levels below where consecutive addresses part.

use crate::bits;
use crate::prefix::Ipv6Prefix;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};

const NIL: u32 = u32::MAX;

/// "No prefix matched" in [`Finger::best`] (depths stop at 128).
const NO_MATCH: u8 = u8::MAX;

/// A trie identity no trie in this process has had. `Relaxed`: only
/// the number's uniqueness matters, it publishes nothing else.
fn fresh_id() -> u64 {
    // 0 is never issued: it is the identity a new `Finger` names.
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Debug)]
struct Node<T> {
    child: [u32; 2],
    value: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            child: [NIL, NIL],
            value: None,
        }
    }
}

/// Binary trie keyed by [`Ipv6Prefix`], storing one `T` per prefix.
#[derive(Debug)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
    /// `(identity, generation)`: which trie this is — no two share an
    /// identity, a clone gets its own — and how many times it has been
    /// modified. A [`Finger`] trusts the path it kept only in the trie
    /// that stamped it, as it stood then.
    stamp: (u64, u64),
}

impl<T: Clone> Clone for PrefixTrie<T> {
    fn clone(&self) -> Self {
        PrefixTrie {
            nodes: self.nodes.clone(),
            len: self.len,
            stamp: (fresh_id(), 0),
        }
    }
}

/// Where the last [`PrefixTrie::longest_match_from`] went, so the next
/// one starts where the two addresses part instead of at the root.
/// Lookups in address order share most of their leading bits, and so
/// most of their descent.
///
/// A finger is a hint, never an answer: one carried to another trie, or
/// kept across an `insert` or `remove`, is recognised by the trie's
/// stamp and costs one full descent.
#[derive(Clone, Debug)]
pub struct Finger {
    /// Stamp of the trie `path` was walked in.
    stamp: (u64, u64),
    /// The address word last looked up.
    last: u128,
    /// How deep that descent got: `path[..=reached]` is valid.
    reached: u8,
    /// `path[d]` is the node `d` bits of `last` lead to.
    path: [u32; 129],
    /// `best[d]` is the depth of the deepest node of `path[..=d]` that
    /// holds a value, or [`NO_MATCH`].
    best: [u8; 129],
}

impl Default for Finger {
    fn default() -> Self {
        Finger {
            // No trie carries it, so the first lookup starts at the root.
            stamp: (0, 0),
            last: 0,
            reached: 0,
            path: [0; 129],
            best: [NO_MATCH; 129],
        }
    }
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
            stamp: (fresh_id(), 0),
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `prefix`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Ipv6Prefix, value: T) -> Option<T> {
        self.stamp.1 += 1;
        let mut node = 0u32;
        let word = prefix.base_word();
        for depth in 0..prefix.len() {
            let b = bits::bit(word, depth) as usize;
            let next = self.nodes[node as usize].child[b];
            let next = if next == NIL {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[node as usize].child[b] = idx;
                idx
            } else {
                next
            };
            node = next;
        }
        let slot = &mut self.nodes[node as usize].value;
        let old = slot.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn find_node(&self, prefix: &Ipv6Prefix) -> Option<u32> {
        let mut node = 0u32;
        let word = prefix.base_word();
        for depth in 0..prefix.len() {
            let b = bits::bit(word, depth) as usize;
            let next = self.nodes[node as usize].child[b];
            if next == NIL {
                return None;
            }
            node = next;
        }
        Some(node)
    }

    /// Removes the value at `prefix`, if present. Interior nodes are left
    /// in place (tombstone-free removal is not needed by this workload).
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<T> {
        let n = self.find_node(prefix)?;
        let old = self.nodes[n as usize].value.take();
        if old.is_some() {
            self.len -= 1;
            self.stamp.1 += 1;
        }
        old
    }

    /// Longest-prefix match for an address: the most specific stored prefix
    /// covering `addr`, together with its value.
    pub fn longest_match(&self, addr: Ipv6Addr) -> Option<(Ipv6Prefix, &T)> {
        self.longest_match_word(bits::to_u128(addr))
    }

    /// The descent every longest-prefix match is: from `node`, which
    /// `depth` bits of `word` lead to, follow `word` while it has
    /// children, telling `enter` each node entered and its depth.
    /// Returns the depth it stopped at.
    #[inline]
    fn descend<'a>(
        &'a self,
        word: u128,
        mut depth: u8,
        mut node: u32,
        mut enter: impl FnMut(u8, u32, &'a Option<T>),
    ) -> u8 {
        while depth < 128 {
            let b = bits::bit(word, depth) as usize;
            let next = self.nodes[node as usize].child[b];
            if next == NIL {
                break;
            }
            node = next;
            depth += 1;
            enter(depth, node, &self.nodes[node as usize].value);
        }
        depth
    }

    /// Longest-prefix match on a raw address word.
    pub fn longest_match_word(&self, word: u128) -> Option<(Ipv6Prefix, &T)> {
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        self.descend(word, 0, 0, |depth, _, value| {
            if let Some(v) = value {
                best = Some((depth, v));
            }
        });
        best.map(|(len, v)| (Ipv6Prefix::from_word(word, len), v))
    }

    /// [`Self::longest_match_word`], resumed from `finger`: the descent
    /// starts below the bits `word` shares with the finger's last
    /// lookup, and leaves the finger at `word`. Any finger gives the
    /// plain answer, in any order of lookups; one last used on this
    /// trie as it now stands gives it sooner.
    pub fn longest_match_from(&self, finger: &mut Finger, word: u128) -> Option<(Ipv6Prefix, &T)> {
        let from = if finger.stamp == self.stamp {
            bits::common_prefix_len(finger.last, word).min(finger.reached)
        } else {
            finger.stamp = self.stamp;
            finger.path[0] = 0;
            finger.best[0] = if self.nodes[0].value.is_some() {
                0
            } else {
                NO_MATCH
            };
            0
        };
        finger.last = word;
        let mut best = finger.best[from as usize];
        let Finger {
            path, best: bests, ..
        } = finger;
        let reached = self.descend(word, from, path[from as usize], |depth, node, value| {
            if value.is_some() {
                best = depth;
            }
            path[depth as usize] = node;
            bests[depth as usize] = best;
        });
        finger.reached = reached;
        if best == NO_MATCH {
            return None;
        }
        let value = self.nodes[finger.path[best as usize] as usize]
            .value
            .as_ref()
            .expect("the finger's best depth holds a value");
        Some((Ipv6Prefix::from_word(word, best), value))
    }

    /// True if any stored prefix covers `addr`.
    pub(crate) fn covers(&self, addr: Ipv6Addr) -> bool {
        self.longest_match(addr).is_some()
    }

    /// Iterates over all `(prefix, value)` pairs in lexicographic
    /// (base address, then length) trie order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            trie: self,
            stack: vec![(0u32, 0u128, 0u8)],
        }
    }
}

/// Depth-first iterator over `(prefix, value)` pairs.
pub struct Iter<'a, T> {
    trie: &'a PrefixTrie<T>,
    stack: Vec<(u32, u128, u8)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Ipv6Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, word, depth)) = self.stack.pop() {
            let n = &self.trie.nodes[node as usize];
            // Push right then left so left (0-bit) is visited first.
            if depth < 128 {
                if n.child[1] != NIL {
                    let w = bits::with_bit(word, depth, true);
                    self.stack.push((n.child[1], w, depth + 1));
                }
                if n.child[0] != NIL {
                    self.stack.push((n.child[0], word, depth + 1));
                }
            }
            if let Some(v) = n.value.as_ref() {
                return Some((Ipv6Prefix::from_word(word, depth), v));
            }
        }
        None
    }
}

impl<T> FromIterator<(Ipv6Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv6Prefix, T)>>(iter: I) -> Self {
        let mut trie = PrefixTrie::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("2001:db8::/32"), 1), None);
        assert_eq!(t.insert(p("2001:db8::/32"), 2), Some(1));
        assert_eq!(t.len(), 1);
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, [(p("2001:db8::/32"), &2)]);
        assert_eq!(t.remove(&p("2001:db8::/33")), None);
        assert_eq!(t.remove(&p("2001:db8::/32")), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("2001:db8::/32")), None);
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("2001:db8::/32"), "coarse");
        t.insert(p("2001:db8:aa::/48"), "fine");
        let (pf, v) = t.longest_match(a("2001:db8:aa::1")).unwrap();
        assert_eq!((pf, *v), (p("2001:db8:aa::/48"), "fine"));
        let (pf, v) = t.longest_match(a("2001:db8:bb::1")).unwrap();
        assert_eq!((pf, *v), (p("2001:db8::/32"), "coarse"));
        assert!(t.longest_match(a("2001:db9::1")).is_none());
    }

    #[test]
    fn default_route() {
        let mut t = PrefixTrie::new();
        t.insert(p("::/0"), "default");
        t.insert(p("2001:db8::/32"), "specific");
        let (pf, v) = t.longest_match(a("abcd::1")).unwrap();
        assert_eq!((pf, *v), (p("::/0"), "default"));
        let (pf, _) = t.longest_match(a("2001:db8::1")).unwrap();
        assert_eq!(pf, p("2001:db8::/32"));
    }

    #[test]
    fn slash_128_entries() {
        let mut t = PrefixTrie::new();
        t.insert(p("2001:db8::1/128"), ());
        assert!(t.covers(a("2001:db8::1")));
        assert!(!t.covers(a("2001:db8::2")));
    }

    #[test]
    fn iteration_order_and_within() {
        let mut t = PrefixTrie::new();
        for s in [
            "2001:db8::/32",
            "2001:db8::/48",
            "2001:db8:1::/48",
            "3fff::/20",
        ] {
            t.insert(p(s), s.to_string());
        }
        let all: Vec<_> = t.iter().map(|(pf, _)| pf).collect();
        assert_eq!(
            all,
            vec![
                p("2001:db8::/32"),
                p("2001:db8::/48"),
                p("2001:db8:1::/48"),
                p("3fff::/20"),
            ]
        );
    }

    #[test]
    fn from_iterator() {
        let t: PrefixTrie<u32> = [(p("2001::/16"), 1), (p("2002::/16"), 2)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.longest_match(a("2002::1")).unwrap().1, &2);
    }
}
