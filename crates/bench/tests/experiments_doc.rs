//! EXPERIMENTS.md must document every experiment `repro --list` runs,
//! under the id the binary uses: a `## <ID> —` heading per id.

use lpc_bench::experiments::ALL_IDS;

#[test]
fn every_experiment_id_has_an_experiments_md_heading() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let headings: Vec<&str> = doc.lines().filter(|l| l.starts_with("## ")).collect();
    let missing: Vec<String> = ALL_IDS
        .iter()
        .map(|id| format!("## {} —", id.to_uppercase()))
        .filter(|want| !headings.iter().any(|h| h.starts_with(want.as_str())))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md lacks headings: {missing:?}"
    );
}
