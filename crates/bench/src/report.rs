//! What an experiment returns and how it is printed: a [`Report`] is one
//! table plus the paper's statements about it as checked [`Claim`]s; the
//! scorecard is every claim of a run as one markdown table.

use simnet::Scale;

/// What the repository declares about a claim. A run fails when the
/// observed status differs from the declaration in either direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Declared {
    /// The claim reproduces.
    Holds,
    /// The claim does not reproduce, and why (a simulator-fidelity or an
    /// expectation bug). A fix that makes it hold forces the note out.
    Gap(&'static str),
}

/// One statement of the paper, evaluated on the numbers its table prints.
#[derive(Clone, Debug)]
pub struct Claim {
    /// `experiment.claim`, unique across the scorecard.
    pub id: &'static str,
    /// The paper's statement.
    pub paper: &'static str,
    /// Whether this run's numbers satisfy it.
    pub holds: bool,
    /// The numbers the predicate looked at.
    pub observed: String,
    /// The declared status.
    pub expect: Declared,
    /// Smallest scale at which the statement means anything; the claim
    /// reads `n/a` below it.
    pub from: Scale,
}

impl Claim {
    /// Declares the claim a known gap.
    pub fn gap(&mut self, why: &'static str) -> &mut Claim {
        self.expect = Declared::Gap(why);
        self
    }

    /// Restricts the claim to `Scale::Small` and up.
    pub fn from_small(&mut self) -> &mut Claim {
        self.from = Scale::Small;
        self
    }

    /// The status cell at `scale`, and whether it contradicts `expect`.
    pub fn status(&self, scale: Scale) -> (&'static str, bool) {
        if (scale as u8) < self.from as u8 {
            return ("n/a", false);
        }
        match (self.holds, self.expect) {
            (true, Declared::Holds) => ("holds", false),
            (false, Declared::Gap(_)) => ("gap", false),
            (false, Declared::Holds) => ("MISMATCH: declared to hold, fails", true),
            (true, Declared::Gap(_)) => ("MISMATCH: declared a gap, holds", true),
        }
    }
}

/// One experiment's output.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Column headings.
    pub columns: Vec<String>,
    /// Cells, one `Vec` per row; an empty row prints as a blank line.
    pub rows: Vec<Vec<String>>,
    /// The paper's statements about this table.
    pub claims: Vec<Claim>,
}

impl Report {
    /// A report with the given `|`-separated headings.
    pub fn new(columns: &str) -> Report {
        Report {
            columns: columns.split('|').map(String::from).collect(),
            ..Default::default()
        }
    }

    /// Appends a row: its label, then the remaining cells.
    pub fn row(&mut self, label: impl ToString, cells: impl IntoIterator<Item = String>) {
        self.rows
            .push([label.to_string()].into_iter().chain(cells).collect());
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Appends a claim declared to hold at every scale; [`Claim::gap`]
    /// and [`Claim::from_small`] on the result say otherwise.
    pub fn claim(
        &mut self,
        id: &'static str,
        paper: &'static str,
        holds: bool,
        observed: String,
    ) -> &mut Claim {
        self.claims.push(Claim {
            id,
            paper,
            holds,
            observed,
            expect: Declared::Holds,
            from: Scale::Tiny,
        });
        self.claims.last_mut().expect("just pushed")
    }

    /// The table as text: right-aligned cells, every column as wide as its
    /// widest cell, a dashed rule under the headings.
    pub fn table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{cell:>w$} "));
            }
            s.truncate(s.trim_end().len());
            s.push('\n');
            s
        };
        let header = line(&self.columns);
        let mut out = format!(
            "{header}{}\n",
            "-".repeat(header.trim_end().chars().count())
        );
        self.rows.iter().for_each(|r| out.push_str(&line(r)));
        out
    }
}

/// How many of `claims` contradict their declaration at `scale`: the
/// run's exit status.
pub fn mismatches(claims: &[(&'static str, Claim)], scale: Scale) -> usize {
    claims.iter().filter(|(_, c)| c.status(scale).1).count()
}

/// The markdown scorecard of `claims` (each with its experiment's paper
/// reference) at `scale`.
pub fn scorecard(claims: &[(&'static str, Claim)], scale: Scale) -> String {
    let mut out = String::from(
        "| claim | paper | statement | observed | status | gap |\n|---|---|---|---|---|---|\n",
    );
    for (paper_ref, c) in claims {
        let (status, _) = c.status(scale);
        let why = match c.expect {
            Declared::Gap(why) => why,
            Declared::Holds => "",
        };
        out.push_str(&format!(
            "| `{}` | {paper_ref} | {} | {} | {status} | {why} |\n",
            c.id, c.paper, c.observed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(holds: bool) -> Claim {
        let mut r = Report::default();
        r.claim("t.c", "statement", holds, "x = 1".into()).clone()
    }

    #[test]
    fn columns_are_right_aligned_to_the_widest_cell() {
        let mut r = Report::new("Name|Probes");
        r.row("caida-z64", ["1.38k".to_string()]);
        r.blank();
        r.row("tum", ["105.2k".to_string()]);
        assert_eq!(
            r.table(),
            "     Name Probes\n----------------\ncaida-z64  1.38k\n\n      tum 105.2k\n"
        );
    }

    #[test]
    fn a_status_that_contradicts_its_declaration_is_a_mismatch_either_way() {
        assert_eq!(claim(true).status(Scale::Tiny), ("holds", false));
        assert_eq!(claim(false).gap("why").status(Scale::Tiny), ("gap", false));
        // A `Holds` that fails and a `Gap` that holds.
        let cards = [("T1", claim(false)), ("T1", claim(true).gap("why").clone())];
        assert!(cards.iter().all(|(_, c)| c.status(Scale::Tiny).1));
        assert_eq!(mismatches(&cards, Scale::Small), 2);
        let card = scorecard(&cards, Scale::Small);
        assert_eq!(card.matches("MISMATCH").count(), 2, "{card}");
    }

    #[test]
    fn a_claim_below_its_scale_is_not_applicable_and_never_a_mismatch() {
        let cards = [
            claim(false).from_small().clone(),
            claim(true).gap("why").from_small().clone(),
        ];
        for c in cards {
            assert_eq!(c.status(Scale::Tiny), ("n/a", false));
            assert!(c.status(Scale::Small).1);
            assert_eq!(mismatches(&[("F1", c)], Scale::Tiny), 0);
        }
    }
}
