//! README.md's Architecture block and DESIGN.md §3 list the workspace's
//! crates as `dir/  package  description` rows. Both must name every
//! `crates/*/Cargo.toml` package under its directory, and nothing else.

use std::collections::BTreeSet;
use std::path::Path;

type Inventory = BTreeSet<(String, String)>;

/// `(directory, package name)` for every crate under `crates/`.
fn workspace_crates() -> Inventory {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut out = Inventory::new();
    for entry in std::fs::read_dir(&crates_dir).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .expect("package name")
            .trim_matches('"');
        let dir_name = dir.file_name().unwrap().to_string_lossy();
        out.insert((dir_name.into_owned(), name.to_string()));
    }
    out
}

/// The `dir/  package` rows of the first fenced block after `heading`.
fn listed(doc: &str, heading: &str) -> Inventory {
    let at = doc
        .find(heading)
        .unwrap_or_else(|| panic!("no heading {heading:?}"));
    let block = doc[at..]
        .split("```")
        .nth(1)
        .expect("fenced block after heading");
    block
        .lines()
        .filter_map(|line| {
            let row = line.strip_prefix("  ")?;
            if row.starts_with(' ') {
                return None; // a description continuation line
            }
            let mut words = row.split_whitespace();
            let dir = words.next()?.strip_suffix('/')?;
            Some((dir.to_string(), words.next()?.to_string()))
        })
        .collect()
}

fn assert_matches_workspace(doc_name: &str, listed: Inventory) {
    let actual = workspace_crates();
    let missing: Vec<_> = actual.difference(&listed).collect();
    let stale: Vec<_> = listed.difference(&actual).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "{doc_name}: crates not listed {missing:?}; listed but absent {stale:?}"
    );
}

#[test]
fn readme_architecture_lists_every_crate() {
    let doc = include_str!("../../../README.md");
    assert_matches_workspace("README.md", listed(doc, "## Architecture"));
}

#[test]
fn design_inventory_lists_every_crate() {
    let doc = include_str!("../../../DESIGN.md");
    assert_matches_workspace("DESIGN.md §3", listed(doc, "## 3. Crate inventory"));
}
