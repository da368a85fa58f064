//! Out-of-core store benchmark: packs a million-vertex zipf-labeled graph
//! into the binary NSCS format, then runs a rare-label partitioned
//! estimate against it twice — once with the image fully **resident**,
//! once **streamed** through the bounded chunk cache — and compares peak
//! memory. A CI gate, not a report writer: the measured numbers and the
//! verdict go to stdout.
//!
//! Peak RSS (`VmHWM`) is monotone for the lifetime of a process, so each
//! phase runs in its own subprocess: the parent re-invokes this executable
//! with `--phase resident|streamed --store PATH`, and the child prints a
//! one-line JSON report (open time, estimate time, its own peak RSS).
//!
//! Before the phases, the parent also saves the graph as `.graph` text and
//! times `load_graph` on it (median of 3): `text_load_ms`, printed beside
//! the resident phase's `open_ms`, is what opening the store saves over
//! parsing the text.
//!
//! The headline claim is the memory-budget assertion: the streamed phase
//! must peak below **50%** of the resident phase. On platforms without
//! `/proc/self/status` both peaks read 0 and the assertion is skipped
//! (the timing numbers are still printed).
//!
//! Usage: `bench_store [--vertices N] [--degree D] [--partitions K]`.

use neursc_core::{estimate_partitioned, GraphContext, NeurSc, NeurScConfig};
use neursc_graph::generate::{generate, DegreeModel, GraphSpec};
use neursc_graph::types::Label;
use neursc_graph::Graph;
use neursc_store::{AccessMode, GraphStore, PartitionPlan};
use std::time::Instant;

/// Streamed-phase cache geometry: 2 × 256 Ki adjacency entries = 2 MiB of
/// cached neighbor data, far below the resident image of a 10⁶-vertex
/// graph.
const CHUNK_EDGES: usize = 1 << 18;
const MAX_CHUNKS: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(phase) = flag(&args, "--phase") {
        let store_path = flag(&args, "--store").expect("--phase needs --store");
        let k: usize = flag(&args, "--partitions")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4);
        run_phase(phase, store_path, k);
        return;
    }

    let n_vertices: usize = flag(&args, "--vertices")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let degree: f64 = flag(&args, "--degree")
        .and_then(|v| v.parse().ok())
        .unwrap_or(6.0);
    let partitions: usize = flag(&args, "--partitions")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // Zipf-skewed labels: the query below targets the rare tail, so the
    // candidate sets stay small while pruning still scans every vertex.
    let spec = GraphSpec {
        n_vertices,
        avg_degree: degree,
        n_labels: 32,
        label_zipf: 1.5,
        model: DegreeModel::ErdosRenyi,
    };
    eprintln!("generating |V|={n_vertices} avg_degree={degree} ...");
    let t = Instant::now();
    let g = generate(&spec, 17);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "generated |V|={} |E|={} |L|={} in {gen_ms:.0} ms",
        g.n_vertices(),
        g.n_edges(),
        g.n_labels()
    );

    let dir = std::env::temp_dir().join("neursc_bench_store");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let store_path = dir.join("bench.nscs");
    let t = Instant::now();
    let file_bytes = neursc_store::pack_graph(&g, &store_path).expect("pack graph");
    let pack_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("packed {file_bytes} bytes in {pack_ms:.0} ms");
    // What the store is weighed against: the same graph as `.graph` text,
    // read back by `load_graph` as `--data` reads it.
    let text_path = dir.join("bench.graph");
    neursc_graph::io::save_graph(&g, &text_path).expect("save graph text");
    let mut loads: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let loaded = neursc_graph::io::load_graph(&text_path).expect("load graph text");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(loaded == g, "text roundtrip changed the graph");
            ms
        })
        .collect();
    loads.sort_by(f64::total_cmp);
    let text_load_ms = loads[1];
    std::fs::remove_file(&text_path).ok();
    drop(g);

    let exe = std::env::current_exe().expect("current_exe");
    let mut phases = Vec::new();
    for phase in ["resident", "streamed"] {
        let out = std::process::Command::new(&exe)
            .args(["--phase", phase, "--store"])
            .arg(&store_path)
            .args(["--partitions", &partitions.to_string()])
            .output()
            .expect("spawn phase subprocess");
        assert!(
            out.status.success(),
            "{phase} phase failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = String::from_utf8_lossy(&out.stdout).trim().to_string();
        phases.push((phase, line));
    }

    let field = |line: &str, key: &str| -> f64 {
        // The child emits flat `"key": value` JSON; a missing key is a
        // bench bug, not a soft failure.
        let pat = format!("\"{key}\":");
        let rest = line
            .split(&pat)
            .nth(1)
            .unwrap_or_else(|| panic!("missing {key} in {line}"));
        rest.trim_start()
            .trim_start_matches(' ')
            .split([',', '}'])
            .next()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("bad {key} in {line}"))
    };
    let resident_rss = field(&phases[0].1, "peak_rss_bytes");
    let streamed_rss = field(&phases[1].1, "peak_rss_bytes");
    let est_resident = field(&phases[0].1, "estimate");
    let est_streamed = field(&phases[1].1, "estimate");
    assert_eq!(
        est_resident.to_bits(),
        est_streamed.to_bits(),
        "streamed estimate must be bit-identical to resident"
    );
    let ratio = if resident_rss > 0.0 {
        streamed_rss / resident_rss
    } else {
        0.0
    };
    let rss_measured = resident_rss > 0.0 && streamed_rss > 0.0;

    println!(
        "bench_store: |V|={n_vertices}, store {file_bytes} bytes, generate {gen_ms:.1} ms, \
         pack {pack_ms:.1} ms, {partitions} partitions, streamed cache \
         {MAX_CHUNKS} x {CHUNK_EDGES} edges"
    );
    for (name, line) in &phases {
        println!("{name}: {line}");
    }
    println!(
        "text_load_ms: {text_load_ms:.1} (load_graph of the same graph as .graph text, \
         median of 3) beside resident open_ms: {:.1}",
        field(&phases[0].1, "open_ms")
    );
    println!("streamed/resident peak RSS: {ratio:.4}");
    std::fs::remove_dir_all(&dir).ok();

    if rss_measured {
        assert!(
            ratio < 0.5,
            "memory budget violated: streamed peak {streamed_rss} B is {:.0}% of \
             resident peak {resident_rss} B (budget: <50%)",
            ratio * 100.0
        );
        println!(
            "memory budget met: streamed peak is {:.0}% of resident ✓",
            ratio * 100.0
        );
    } else {
        println!("peak RSS unavailable on this platform; budget assertion skipped");
    }
}

/// One measured phase, in its own process so `VmHWM` reflects this phase
/// alone. Prints a single JSON object on stdout.
fn run_phase(phase: &str, store_path: &str, k: usize) {
    let mode = match phase {
        "resident" => AccessMode::Resident,
        "streamed" => AccessMode::Streamed {
            chunk_edges: CHUNK_EDGES,
            max_chunks: MAX_CHUNKS,
        },
        other => panic!("unknown phase {other:?}"),
    };
    let t = Instant::now();
    let store = GraphStore::open(store_path, mode).expect("open store");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;

    // Rare-label edge query: the two least-frequent labels actually
    // present. Small candidate sets, full-graph pruning scan.
    let mut by_freq: Vec<(u64, Label)> = (0..store.n_labels() as Label)
        .map(|l| (store.label_frequency(l), l))
        .filter(|&(f, _)| f > 0)
        .collect();
    by_freq.sort_unstable();
    let (la, lb) = (by_freq[0].1, by_freq[by_freq.len().min(2) - 1].1);
    let q = Graph::from_edges(2, &[la, lb], &[(0, 1)]).expect("query");

    let mut cfg = NeurScConfig::small();
    cfg.max_substructure_vertices = Some(64);
    let model = NeurSc::new(cfg, 7);
    let plan = PartitionPlan::contiguous(&store, k);
    let t = Instant::now();
    let d = estimate_partitioned(&model, &q, &store, &plan, &GraphContext::new(), None, 2)
        .expect("partitioned estimate");
    let estimate_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = store.cache_stats();
    println!(
        "{{\"open_ms\": {open_ms:.1}, \"estimate_ms\": {estimate_ms:.1}, \
         \"estimate\": {:.6}, \"n_substructures\": {}, \"trivially_zero\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"peak_rss_bytes\": {}}}",
        d.count,
        d.n_substructures,
        d.trivially_zero,
        stats.hits,
        stats.misses,
        neursc_core::obs::process_peak_rss_bytes()
    );
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}
