//! Cell formatting: the paper renders counts as `105.2k` / `12.4M`; we
//! match that so outputs read side-by-side with its tables.

/// Formats a count the way the paper's tables do.
pub fn human(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else if n >= 1_000 {
        format!("{:.2}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_matches_paper_style() {
        assert_eq!(human(158), "158");
        assert_eq!(human(1_400), "1.40k");
        assert_eq!(human(105_200), "105.2k");
        assert_eq!(human(1_300_000), "1.30M");
        assert_eq!(human(45_800_000), "45.8M");
    }

    #[test]
    fn pct_rounds() {
        assert_eq!(pct(0.981), "98.1%");
        assert_eq!(pct(0.0), "0.0%");
    }
}
