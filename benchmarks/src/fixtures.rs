//! Fixture files: everything a measured child process reads.
//!
//! The parent builds a workload's fixtures once per fixture version — data
//! graph, trained model, query pool, exact counts, reference outputs — and
//! hands the child nothing but the directory. The child never
//! generates a graph, enumerates embeddings or trains a serving model, so
//! its peak RSS, CPU time and set-up time are the system's, not the
//! generator's.
//!
//! The query pool is a fixed dataset (like the paper's fixed query sets of
//! Table 3); `--seed` decides the order in which a run issues it. A fresh
//! draw of 256 queries per seed moves `lat_p50_ms` by an inter-quartile
//! range of 18% between seeds (measured: the per-query cost distribution
//! is heavy-tailed), which is more than any bound, so it would hide every
//! real change.

use neursc_graph::io::{format_graph, parse_graph, save_graph};
use neursc_graph::Graph;
use neursc_workloads::datasets::{dataset, DatasetId};
use neursc_workloads::ground_truth::{count_all, GroundTruthConfig};
use neursc_workloads::queries::{build_query_set, QuerySetConfig};
use std::path::{Path, PathBuf};

/// Bumped whenever the fixture layout or any generation constant changes,
/// so stale directories are never read.
pub const FIXTURE_VERSION: u32 = 2;

/// Seed of the query pools: part of the dataset, like the graph presets.
pub const POOL_SEED: u64 = 20220612;

/// Expansion budget of exact counting: queries whose ground truth needs
/// more are dropped from the pool (the paper's 30-minute cut-off).
pub const GROUND_TRUTH_BUDGET: u64 = 4_000_000;

/// `<fixture root>/v<version>/<workload>`.
pub fn fixture_dir(root: &Path, workload: &str) -> PathBuf {
    root.join(format!("v{FIXTURE_VERSION}")).join(workload)
}

/// The fixture root: `neursc-fixtures/` next to the build profile directory
/// of the running executable, i.e. inside the cargo target directory — in
/// the checkout, ignored by git, and shared by every run of one build.
pub fn default_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let profile_dir = exe.parent().expect("executable has a parent directory");
    // Integration tests run from `<target>/<profile>/deps/`.
    let profile_dir = if profile_dir.ends_with("deps") {
        profile_dir.parent().expect("deps has a parent directory")
    } else {
        profile_dir
    };
    profile_dir
        .parent()
        .expect("profile directory has a parent")
        .join("neursc-fixtures")
}

/// `count` labeled queries of `size` vertices sampled from `g`: generates
/// `count + spare` candidates, counts each exactly and keeps the first
/// `count` whose ground truth fits [`GROUND_TRUTH_BUDGET`].
pub fn labeled_queries(
    g: &Graph,
    size: usize,
    count: usize,
    spare: usize,
    seed: u64,
) -> Vec<(Graph, u64)> {
    let candidates = build_query_set(g, &QuerySetConfig::new(size, count + spare, seed));
    let cfg = GroundTruthConfig {
        budget: GROUND_TRUTH_BUDGET,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache_dir: None,
        cache_key: None,
    };
    let labeled: Vec<(Graph, u64)> = candidates
        .iter()
        .zip(count_all(g, &candidates, &cfg))
        .filter_map(|(q, c)| c.map(|c| (q.clone(), c)))
        .take(count)
        .collect();
    assert_eq!(
        labeled.len(),
        count,
        "only {} of {} Q{size} queries fit the ground-truth budget; raise `spare`",
        labeled.len(),
        count + spare
    );
    labeled
}

/// Writes graphs back to back in `.graph` text format.
pub fn save_graphs(graphs: &[Graph], path: &Path) {
    let text: String = graphs.iter().map(format_graph).collect();
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Reads a file written by [`save_graphs`]: every `t` line starts a graph.
pub fn load_graphs(path: &Path) -> Vec<Graph> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut starts: Vec<usize> = text
        .match_indices("t ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
        .collect();
    starts.push(text.len());
    starts
        .windows(2)
        .map(|w| {
            parse_graph(&text[w[0]..w[1]])
                .unwrap_or_else(|e| panic!("parse a graph of {}: {e}", path.display()))
        })
        .collect()
}

/// Writes one row of unsigned integers per line, tab separated.
pub fn save_table(rows: &[Vec<u64>], path: &Path) {
    let text: String = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(u64::to_string).collect();
            cells.join("\t") + "\n"
        })
        .collect();
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Reads a file written by [`save_table`].
pub fn load_table(path: &Path) -> Vec<Vec<u64>> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(|line| {
            line.split('\t')
                .map(|c| {
                    c.parse()
                        .unwrap_or_else(|e| panic!("cell `{c}` of {}: {e}", path.display()))
                })
                .collect()
        })
        .collect()
}

/// Generates the data graph of `id` and saves it as `data.graph` in `dir`.
pub fn save_dataset(id: DatasetId, dir: &Path) -> Graph {
    let g = dataset(id);
    save_graph(&g, &dir.join("data.graph")).expect("save the data graph");
    g
}

/// Builds a fixture directory atomically: `build` fills a private temporary
/// directory which is then renamed into place, so a reader never sees a
/// half-written fixture and two concurrent builders cannot corrupt each
/// other (the loser's copy is discarded). Returns the seconds spent, `0.0`
/// when the fixture already existed.
pub fn ensure(dir: &Path, build: impl FnOnce(&Path)) -> f64 {
    if dir.is_dir() {
        return 0.0;
    }
    let t0 = std::time::Instant::now();
    let parent = dir.parent().expect("fixture directory has a parent");
    std::fs::create_dir_all(parent).expect("create the fixture root");
    let tmp = parent.join(format!(
        ".{}.tmp-{}",
        dir.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("fixture"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create the temporary fixture directory");
    build(&tmp);
    if std::fs::rename(&tmp, dir).is_err() {
        // Another builder won the race; its copy is equivalent.
        let _ = std::fs::remove_dir_all(&tmp);
        assert!(dir.is_dir(), "could not move the fixture into place");
    }
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_graph::generate::erdos_renyi;

    fn scratch(name: &str) -> PathBuf {
        let dir = default_root().join("unit-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn graphs_and_tables_round_trip() {
        let dir = scratch("roundtrip");
        let graphs = vec![erdos_renyi(5, 6, 3, 1), erdos_renyi(4, 3, 2, 2)];
        save_graphs(&graphs, &dir.join("q.graphs"));
        assert_eq!(load_graphs(&dir.join("q.graphs")), graphs);
        let rows = vec![vec![1, u64::MAX, 3], vec![0]];
        save_table(&rows, &dir.join("t.tsv"));
        assert_eq!(load_table(&dir.join("t.tsv")), rows);
    }

    #[test]
    fn ensure_builds_once() {
        let dir = scratch("ensure").join("fx");
        let mut built = 0;
        for _ in 0..2 {
            ensure(&dir, |tmp| {
                built += 1;
                std::fs::write(tmp.join("x"), "1").unwrap();
            });
        }
        assert_eq!(built, 1);
        assert!(dir.join("x").is_file());
    }

    #[test]
    fn over_budget_queries_are_dropped_and_labels_are_exact() {
        let g = erdos_renyi(60, 200, 3, 4);
        let labeled = labeled_queries(&g, 4, 6, 4, 9);
        assert_eq!(labeled.len(), 6);
        for (q, c) in &labeled {
            assert_eq!(*c, neursc_match::enumerate::brute_force_count(q, &g));
        }
    }
}
