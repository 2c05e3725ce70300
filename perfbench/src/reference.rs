//! Output values recorded at the commit that introduced the benchmark.
//!
//! `perfbench --record` regenerates both files; a change to the program
//! that moves a recorded value beyond its tolerance is a wrong answer.

use std::collections::BTreeMap;

/// Figure values: `name<TAB>value`, seed-independent rows plus the Monte
/// Carlo rows of the default and held-out seeds.
const FIGURES: &str = include_str!("../reference/figures.tsv");

/// Campaign verdicts: `campaign<TAB>fault label<TAB>class tag`.
const CAMPAIGNS: &str = include_str!("../reference/campaigns.tsv");

fn rows(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
}

/// Recorded figure values by name.
pub fn figures() -> BTreeMap<String, f64> {
    rows(FIGURES)
        .map(|r| {
            let v = r[1].parse().expect("recorded values are numbers");
            (r[0].to_string(), v)
        })
        .collect()
}

/// Recorded verdict class by `(campaign, label)`.
pub fn campaigns() -> BTreeMap<(String, String), String> {
    rows(CAMPAIGNS)
        .map(|r| ((r[0].to_string(), r[1].to_string()), r[2].to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_files_parse_and_hold_both_seeds() {
        let f = figures();
        assert!(f.len() > 100, "{}", f.len());
        for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
            assert!(
                f.contains_key(&format!("mc@{seed}.switch[0].mean")),
                "{seed}"
            );
        }
        let c = campaigns();
        assert_eq!(c.keys().filter(|(k, _)| k == "switch").count(), 49);
        assert_eq!(c.keys().filter(|(k, _)| k == "mos").count(), 184);
    }
}
