//! Token-bucket ICMPv6 rate limiting in virtual time.
//!
//! RFC 4443 §2.4(f) *mandates* that IPv6 nodes limit the rate of ICMPv6
//! error messages they originate, and recommends token-bucket
//! implementations. This is the mechanism the paper's randomized probing
//! is designed to evade: sequential traceroute drains the buckets of
//! near-vantage routers, while a randomized permutation spreads the same
//! average load thinly enough that buckets keep pace.

use crate::config::RateLimitClass;
use serde::{Deserialize, Serialize};

/// A token bucket advanced by explicit virtual-time stamps (µs).
///
/// Tokens accrue continuously at `rate_pps` up to `burst`. Each
/// [`TokenBucket::try_consume`] at a non-decreasing timestamp takes one
/// token or reports exhaustion. Fractional accrual is tracked in
/// token-microseconds so no refill is lost to rounding.
///
/// One cache line per bucket: randomized probing lands every probe on
/// another router's bucket, so a bucket is a miss, and must be one miss.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[repr(align(64))]
pub(crate) struct TokenBucket {
    rate_pps: u64,
    burst: u64,
    /// Tokens × 1e6 (token-microseconds) currently available.
    tokens_e6: u64,
    last_us: u64,
    /// Messages suppressed by exhaustion (observability).
    pub suppressed: u64,
}

const _: () = assert!(size_of::<TokenBucket>() == 64);

impl TokenBucket {
    /// A full bucket of the given class, at virtual time zero.
    pub(crate) fn new(class: RateLimitClass) -> Self {
        TokenBucket {
            rate_pps: class.rate_pps as u64,
            burst: class.burst as u64,
            tokens_e6: class.burst as u64 * 1_000_000,
            last_us: 0,
            suppressed: 0,
        }
    }

    fn refill(&mut self, now_us: u64) {
        if now_us > self.last_us {
            let dt = now_us - self.last_us;
            self.tokens_e6 = (self.tokens_e6 + dt * self.rate_pps).min(self.burst * 1_000_000);
            self.last_us = now_us;
        }
    }

    /// Attempts to take one token at virtual time `now_us`. Out-of-order
    /// timestamps are treated as "now" (no refill, no error): responses in
    /// flight may interleave.
    pub(crate) fn try_consume(&mut self, now_us: u64) -> bool {
        self.refill(now_us);
        if self.tokens_e6 >= 1_000_000 {
            self.tokens_e6 -= 1_000_000;
            true
        } else {
            self.suppressed += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(rate: u32, burst: u32) -> RateLimitClass {
        RateLimitClass {
            rate_pps: rate,
            burst,
        }
    }

    #[test]
    fn burst_then_exhaustion() {
        let mut b = TokenBucket::new(class(100, 5));
        for _ in 0..5 {
            assert!(b.try_consume(0));
        }
        assert!(!b.try_consume(0));
        assert_eq!(b.suppressed, 1);
    }

    #[test]
    fn refills_at_rate() {
        let mut b = TokenBucket::new(class(100, 5));
        for _ in 0..5 {
            assert!(b.try_consume(0));
        }
        // 100 pps => one token per 10_000 µs.
        assert!(!b.try_consume(9_999));
        assert!(b.try_consume(10_000));
        assert!(!b.try_consume(10_001));
    }

    #[test]
    fn burst_caps_accrual() {
        let mut b = TokenBucket::new(class(100, 5));
        for _ in 0..5 {
            assert!(b.try_consume(0));
        }
        // A long silence refills to the cap, not beyond.
        let t = 10_000_000;
        for i in 0..5 {
            assert!(b.try_consume(t + i));
        }
        assert!(!b.try_consume(t + 5));
    }

    #[test]
    fn sustained_rate_conservation() {
        // Offered load of 200 pps against a 100 pps bucket for 1 virtual
        // second: roughly half the messages must be suppressed, and
        // accepted + suppressed == offered exactly.
        let mut b = TokenBucket::new(class(100, 10));
        let mut accepted = 0u64;
        let offered = 200u64;
        for i in 0..offered {
            let t = i * 5_000; // 200 pps spacing
            if b.try_consume(t) {
                accepted += 1;
            }
        }
        assert_eq!(accepted + b.suppressed, offered);
        // 10 burst + ~100 refilled over 0.995s.
        assert!((105..=115).contains(&accepted), "accepted={accepted}");
    }

    #[test]
    fn out_of_order_timestamps_do_not_panic_or_refill() {
        let mut b = TokenBucket::new(class(100, 2));
        assert!(b.try_consume(1_000_000));
        assert!(b.try_consume(500_000)); // earlier timestamp: treated as now
        assert!(!b.try_consume(500_000));
    }

    #[test]
    fn fractional_refill_not_lost() {
        let mut b = TokenBucket::new(class(3, 1)); // 1 token per 333_333.3 µs
        assert!(b.try_consume(0));
        // After 333_334 µs, 3 pps * 333_334 µs = 1.000002 tokens.
        assert!(b.try_consume(333_334));
        assert!(!b.try_consume(333_335));
    }
}
