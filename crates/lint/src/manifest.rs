//! The intended crate DAG, plus a minimal `Cargo.toml` reader that
//! checks each crate's `[dependencies]` section against it.
//!
//! The table below IS the layering spec: adding a crate or an edge
//! means editing it here, in a reviewed diff, next to the rule that
//! enforces it. Only first-party `litmus-*` dependencies are checked —
//! the vendored shims (`rand`, `proptest`) sit outside the DAG, and
//! `[dev-dependencies]` are exempt because tests may cross layers.

use crate::report::Violation;
use crate::rules::LAYERING;

/// Crate id → direct `litmus-*` dependencies it is allowed. Ids are
/// directory names under `crates/`; `litmus` is the root facade.
pub const DAG: &[(&str, &[&str])] = &[
    // Foundations: no first-party deps.
    ("stats", &[]),
    ("sim", &[]),
    ("telemetry", &[]),
    // Middle layers.
    ("workloads", &["sim"]),
    ("core", &["stats", "sim", "workloads"]),
    ("platform", &["stats", "core", "sim", "workloads"]),
    ("forecast", &["platform"]),
    ("trace", &["platform", "workloads"]),
    // Cluster consumes everything below it, observe included: the
    // driver co-runs observe's incremental SLO engine at every slice
    // boundary. Observe itself stays a telemetry-only analysis layer
    // (its integration tests cross back into cluster, but
    // dev-dependencies are exempt).
    (
        "cluster",
        &[
            "core",
            "sim",
            "workloads",
            "platform",
            "telemetry",
            "forecast",
            "observe",
        ],
    ),
    ("observe", &["telemetry"]),
    // Top of the stack.
    (
        "bench",
        &[
            "stats",
            "sim",
            "workloads",
            "core",
            "platform",
            "telemetry",
            "cluster",
            "observe",
            "trace",
            "forecast",
        ],
    ),
    (
        "litmus",
        &[
            "stats",
            "sim",
            "workloads",
            "core",
            "platform",
            "telemetry",
            "cluster",
            "observe",
            "trace",
            "forecast",
        ],
    ),
    // The lint tool polices the DAG from outside it: no deps, and no
    // crate may depend on it.
    ("lint", &[]),
];

/// Allowed direct deps for `krate`, or `None` when the crate is not in
/// the table (itself a layering violation at the manifest level).
pub fn allowed_deps(krate: &str) -> Option<&'static [&'static str]> {
    DAG.iter().find(|(k, _)| *k == krate).map(|(_, deps)| *deps)
}

/// What the manifest reader extracts from one `Cargo.toml`.
#[derive(Debug, Default)]
pub struct ManifestFacts {
    /// `name = "…"` under `[package]`, with its line.
    pub name: Option<(String, u32)>,
    /// `litmus-*` entries under `[dependencies]`, with their lines.
    pub deps: Vec<(String, u32)>,
}

/// Reads the two facts the layering rule needs from TOML source. This
/// is a line-oriented reader, not a TOML parser — the workspace's
/// manifests are plain `key = value` tables, which is all it supports.
pub fn read_manifest(src: &str) -> ManifestFacts {
    let mut facts = ManifestFacts::default();
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        if section == "package" && key == "name" && facts.name.is_none() {
            facts.name = Some((value.trim().trim_matches('"').to_string(), lineno));
        }
        if section == "dependencies" && key.starts_with("litmus-") {
            facts.deps.push((key.to_string(), lineno));
        }
    }
    facts
}

/// Checks one crate's manifest against the DAG. `krate` is the crate
/// id derived from the path (directory name, or `litmus` for the
/// root); `rel_path` is used for reporting.
pub fn check_manifest(rel_path: &str, krate: &str, src: &str) -> Vec<Violation> {
    let facts = read_manifest(src);
    let snippet_of = |lineno: u32| {
        src.lines()
            .nth(lineno as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let Some(allowed) = allowed_deps(krate) else {
        let line = facts.name.as_ref().map(|&(_, l)| l).unwrap_or(1);
        return vec![Violation {
            rule: LAYERING.to_string(),
            file: rel_path.to_string(),
            line,
            snippet: snippet_of(line),
            message: format!(
                "crate `{krate}` is not in the layering table — add it to \
                 crates/lint/src/manifest.rs with its intended dependencies"
            ),
        }];
    };
    let mut violations = Vec::new();
    for (dep, line) in &facts.deps {
        let id = dep.trim_start_matches("litmus-");
        if !allowed.contains(&id) {
            violations.push(Violation {
                rule: LAYERING.to_string(),
                file: rel_path.to_string(),
                line: *line,
                snippet: snippet_of(*line),
                message: format!(
                    "crate `{krate}` must not depend on `{dep}` (allowed: {})",
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed.join(", ")
                    }
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_is_acyclic_and_closed() {
        // Every allowed dep must itself be a table entry, and the
        // table must be topologically orderable (no cycles).
        for (krate, deps) in DAG {
            for dep in *deps {
                assert!(
                    allowed_deps(dep).is_some(),
                    "{krate} allows unknown crate {dep}"
                );
                assert_ne!(krate, dep, "{krate} depends on itself");
            }
        }
        // Kahn's algorithm over the table.
        let mut remaining: Vec<&(&str, &[&str])> = DAG.iter().collect();
        let mut placed: Vec<&str> = Vec::new();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|(krate, deps)| {
                if deps.iter().all(|d| placed.contains(d)) {
                    placed.push(krate);
                    false
                } else {
                    true
                }
            });
            assert!(remaining.len() < before, "cycle among {remaining:?}");
        }
    }

    #[test]
    fn reads_package_name_and_litmus_deps_only() {
        let src = "\
[package]
name = \"litmus-observe\"

[dependencies]
litmus-telemetry = { workspace = true }
proptest = { workspace = true }

[dev-dependencies]
litmus-cluster = { workspace = true }
";
        let facts = read_manifest(src);
        assert_eq!(facts.name, Some(("litmus-observe".to_string(), 2)));
        assert_eq!(facts.deps, vec![("litmus-telemetry".to_string(), 5)]);
    }

    #[test]
    fn forbidden_manifest_dep_fires_with_line() {
        let src = "\
[package]
name = \"litmus-telemetry\"

[dependencies]
litmus-cluster = { workspace = true }
";
        let violations = check_manifest("crates/telemetry/Cargo.toml", "telemetry", src);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, LAYERING);
        assert_eq!(violations[0].line, 5);
        assert!(violations[0].message.contains("litmus-cluster"));
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let src = "\
[package]
name = \"litmus-observe\"

[dependencies]
litmus-telemetry = { workspace = true }

[dev-dependencies]
litmus-cluster = { workspace = true }
litmus-platform = { workspace = true }
";
        assert!(check_manifest("crates/observe/Cargo.toml", "observe", src).is_empty());
    }

    #[test]
    fn unknown_crate_fires() {
        let src = "[package]\nname = \"litmus-newthing\"\n";
        let violations = check_manifest("crates/newthing/Cargo.toml", "newthing", src);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("not in the layering table"));
    }
}
