//! The `.graph` loader against a reference: the line parser it replaced (a
//! `String` per line from `BufRead::lines`, a hash map of every edge for
//! duplicate detection, a global edge sort in the build), with two fixes
//! applied — a second `t` header is an error at its line, and an id,
//! label or vertex count beyond the 32-bit id space is an error instead
//! of wrapping. For every generated text, `parse_graph` and `load_graph`
//! on the same bytes written to a file must agree with it: an equal graph,
//! or an error with equal text and line.

use neursc_graph::io::{load_graph, parse_graph};
use neursc_graph::{Graph, GraphError};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

/// The reference parser, fed one `&str` line at a time.
#[derive(Default)]
struct Reference {
    header_at: Option<usize>,
    n_declared: Option<usize>,
    m_declared: Option<usize>,
    labels: Vec<u32>,
    declared_degrees: Vec<Option<usize>>,
    defined_at: Vec<Option<usize>>,
    edges: Vec<(u32, u32)>,
    edge_at: HashMap<(u32, u32), usize>,
}

impl Reference {
    fn feed(&mut self, line_no: usize, raw: &str) -> Result<(), GraphError> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            return Ok(());
        }
        let mut tok = line.split_whitespace();
        let Some(kind) = tok.next() else {
            return Ok(());
        };
        let err = |message: String| GraphError::Parse {
            line: line_no,
            message,
        };
        let parse_num = |s: Option<&str>, what: &str| -> Result<u64, GraphError> {
            s.ok_or_else(|| err(format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|_| err(format!("invalid {what}")))
        };
        match kind {
            "t" => {
                if let Some(first) = self.header_at {
                    return Err(err(format!("duplicate 't' header (first on line {first})")));
                }
                let n = parse_num(tok.next(), "vertex count")?;
                if n > 1 << 32 {
                    return Err(err(format!(
                        "vertex count {n} exceeds 4294967296 (vertex ids are 32-bit)"
                    )));
                }
                let n = n as usize;
                self.n_declared = Some(n);
                self.m_declared = Some(parse_num(tok.next(), "edge count")? as usize);
                self.header_at = Some(line_no);
                self.labels = vec![0; n];
                self.declared_degrees = vec![None; n];
                self.defined_at = vec![None; n];
            }
            "v" => {
                let id = parse_num(tok.next(), "vertex id")?;
                let label = parse_num(tok.next(), "label")?;
                if label > u64::from(u32::MAX) {
                    return Err(err(format!("label {label} does not fit in 32 bits")));
                }
                let n = self.labels.len();
                if id >= n as u64 {
                    return Err(err(format!("vertex id {id} exceeds declared count {n}")));
                }
                let id = id as usize;
                if let Some(first) = self.defined_at[id] {
                    return Err(err(format!(
                        "duplicate 'v' record for vertex {id} (first defined on line {first})"
                    )));
                }
                self.defined_at[id] = Some(line_no);
                self.labels[id] = label as u32;
                if let Some(d) = tok.next() {
                    let d = d
                        .parse::<usize>()
                        .map_err(|_| err("invalid degree".into()))?;
                    self.declared_degrees[id] = Some(d);
                }
            }
            "e" => {
                let u = parse_num(tok.next(), "edge endpoint")?;
                let v = parse_num(tok.next(), "edge endpoint")?;
                if u == v {
                    return Err(err(format!("self-loop 'e {u} {u}' (graphs are simple)")));
                }
                let n = self.labels.len();
                if u >= n as u64 || v >= n as u64 {
                    return Err(err(format!(
                        "edge ({u}, {v}) references a vertex outside the declared count {n}"
                    )));
                }
                let (u, v) = (u as u32, v as u32);
                if let Some(first) = self.edge_at.insert((u.min(v), u.max(v)), line_no) {
                    return Err(err(format!(
                        "duplicate 'e' record for edge ({u}, {v}) (first on line {first})"
                    )));
                }
                self.edges.push((u, v));
            }
            other => return Err(err(format!("unknown record type {other:?}"))),
        }
        Ok(())
    }

    fn finish(self) -> Result<Graph, GraphError> {
        self.n_declared.ok_or(GraphError::Parse {
            line: 1,
            message: "missing 't' header".into(),
        })?;
        let g = reference_csr(self.labels, &self.edges);
        if let Some(m) = self.m_declared {
            if g.n_edges() != m {
                return Err(GraphError::Parse {
                    line: 1,
                    message: format!("header declares {m} edges, found {}", g.n_edges()),
                });
            }
        }
        for (v, d) in self.declared_degrees.iter().enumerate() {
            if let Some(d) = d {
                if g.degree(v as u32) != *d {
                    return Err(GraphError::Parse {
                        line: self.defined_at[v].unwrap_or(1),
                        message: format!(
                            "vertex {v} declares degree {d}, edge list gives {}",
                            g.degree(v as u32)
                        ),
                    });
                }
            }
        }
        Ok(g)
    }
}

/// The old build: every edge canonical, one global sort + dedup, then
/// the CSR arrays.
fn reference_csr(labels: Vec<u32>, edges: &[(u32, u32)]) -> Graph {
    let mut edges: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    edges.sort_unstable();
    edges.dedup();
    let mut rows = vec![Vec::new(); labels.len()];
    for &(u, v) in &edges {
        rows[u as usize].push(v);
        rows[v as usize].push(u);
    }
    let mut offsets = vec![0];
    let mut neighbors = Vec::new();
    for row in &mut rows {
        row.sort_unstable();
        neighbors.extend_from_slice(row);
        offsets.push(neighbors.len());
    }
    Graph::from_csr_parts(labels, offsets, neighbors).unwrap()
}

fn reference_parse(text: &str) -> Result<Graph, GraphError> {
    let mut p = Reference::default();
    for (idx, raw) in text.lines().enumerate() {
        p.feed(idx + 1, raw)?;
    }
    p.finish()
}

fn reference_load(path: &Path) -> Result<Graph, GraphError> {
    let file = std::fs::File::open(path).map_err(|e| GraphError::io_at(path, e))?;
    let mut p = Reference::default();
    for (idx, raw) in std::io::BufReader::new(file).lines().enumerate() {
        let raw = raw.map_err(|e| GraphError::io_at(path, e))?;
        p.feed(idx + 1, &raw)?;
    }
    p.finish()
}

fn assert_same(
    got: &Result<Graph, GraphError>,
    want: &Result<Graph, GraphError>,
    text: &[u8],
) -> Result<(), TestCaseError> {
    let shown = String::from_utf8_lossy(text);
    match (got, want) {
        (Ok(g), Ok(w)) => {
            prop_assert_eq!(g, w, "graphs differ on {:?}", shown);
            prop_assert_eq!(g.max_degree(), w.max_degree());
            prop_assert_eq!(g.n_labels(), w.n_labels());
        }
        (Err(g), Err(w)) => {
            prop_assert_eq!(g.to_string(), w.to_string(), "errors differ on {:?}", shown);
            let line = |e: &GraphError| match e {
                GraphError::Parse { line, .. } => Some(*line),
                _ => None,
            };
            prop_assert_eq!(line(g), line(w));
            prop_assert_eq!(g.is_parse(), w.is_parse());
        }
        _ => prop_assert!(false, "got {got:?}, reference {want:?} on {shown:?}"),
    }
    Ok(())
}

/// Separators `str::split_whitespace` splits on: ASCII ones (U+000B among
/// them) and non-ASCII ones (U+0085, U+00A0, U+3000).
const SEPARATORS: &[&str] = &[
    " ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\r", "\u{85}", "\u{a0}", "\u{3000}", " \u{a0}",
];

/// Number spellings: the value itself, or a broken or unusual one.
fn spell(rng: &mut StdRng, x: u64) -> String {
    match rng.gen_range(0..40) {
        0 => format!("+{x}"),
        1 => format!("00{x}"),
        2 => format!("+0{x}"),
        3 => "x".into(),
        4 => format!("{x}x"),
        5 => format!("-{x}"),
        6 => "+".into(),
        7 => "99999999999999999999".into(),
        8 => "4294967296".into(),
        9 => "4294967297".into(),
        10 => format!("{x}é"),
        11 => "٣".into(),
        _ => x.to_string(),
    }
}

/// A `.graph` text: a random simple graph's records, shuffled, spelled
/// and spaced in unusual ways, with a few kinds of damage.
fn arb_text(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..7u64);
    let mut edges = Vec::new();
    if n >= 2 {
        for _ in 0..rng.gen_range(0..(2 * n)) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !edges.contains(&(u.min(v), u.max(v))) {
                edges.push((u.min(v), u.max(v)));
            }
        }
    }
    let mut degree = vec![0u64; n as usize];
    for &(u, v) in &edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let damage = |rng: &mut StdRng, p: f64| rng.gen_bool(p);
    let mut records: Vec<Vec<String>> = Vec::new();
    for v in 0..n {
        let label = match rng.gen_range(0..30) {
            0 => u64::from(u32::MAX),
            1 => 1 << 32,
            _ => rng.gen_range(0..4),
        };
        let mut r = vec!["v".to_string(), v.to_string(), label.to_string()];
        if rng.gen_bool(0.8) {
            let d = degree[v as usize] + u64::from(damage(&mut rng, 0.03));
            r.push(d.to_string());
        }
        records.push(r);
    }
    for &(u, v) in &edges {
        let (a, b) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
        records.push(vec!["e".into(), a.to_string(), b.to_string()]);
        if damage(&mut rng, 0.1) {
            // A repeat, in either orientation, anywhere in the file.
            let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            records.push(vec!["e".into(), a.to_string(), b.to_string()]);
        }
    }
    if n > 0 && damage(&mut rng, 0.08) {
        let v = rng.gen_range(0..n);
        records.push(vec!["e".into(), v.to_string(), v.to_string()]);
    }
    if damage(&mut rng, 0.08) {
        let far = [n, n + 3, 1 << 32, (1 << 32) + 1][rng.gen_range(0..4)];
        records.push(vec!["e".into(), "0".into(), far.to_string()]);
    }
    if n > 0 && damage(&mut rng, 0.05) {
        records.push(vec![
            "v".into(),
            rng.gen_range(0..n).to_string(),
            "1".into(),
        ]);
    }
    if damage(&mut rng, 0.05) {
        let kind = ["x", "T", "vv", "ee"][rng.gen_range(0..4)];
        records.push(vec![kind.into(), "1".into(), "2".into()]);
    }
    if damage(&mut rng, 0.05) {
        records.push(vec!["t".into(), n.to_string(), edges.len().to_string()]);
    }
    if rng.gen_bool(0.5) {
        records.shuffle(&mut rng);
    }
    let m = edges.len() as u64 + u64::from(damage(&mut rng, 0.04));
    if !damage(&mut rng, 0.03) {
        let vertex_count = match rng.gen_range(0..40) {
            0 => (1u64 << 32) + 1,
            _ => n,
        };
        records.insert(0, vec!["t".into(), vertex_count.to_string(), m.to_string()]);
    }
    for r in &mut records {
        if damage(&mut rng, 0.08) {
            r.truncate(rng.gen_range(1..r.len().max(2)));
        }
        if damage(&mut rng, 0.04) {
            r.push("extra".into());
        }
        let header = r[0] == "t";
        for t in r.iter_mut().skip(1) {
            if let Ok(x) = t.parse::<u64>() {
                if damage(&mut rng, 0.12) {
                    *t = spell(&mut rng, x);
                }
            }
            if header && *t == "4294967296" {
                // Allowed, and a table of 2^32 vertices: keep it off.
                *t = "4294967297".into();
            }
        }
    }

    let mut lines: Vec<Vec<u8>> = Vec::new();
    for r in &records {
        if damage(&mut rng, 0.1) {
            let filler = [
                "",
                "   ",
                "# comment",
                "% comment",
                "  # indented",
                "\u{a0}",
            ];
            lines.push(filler[rng.gen_range(0..filler.len())].as_bytes().to_vec());
        }
        let mut line = String::new();
        if damage(&mut rng, 0.1) {
            line.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        }
        for (i, t) in r.iter().enumerate() {
            if i > 0 {
                let sep = if rng.gen_bool(0.7) {
                    " "
                } else {
                    SEPARATORS[rng.gen_range(0..SEPARATORS.len())]
                };
                line.push_str(sep);
            }
            line.push_str(t);
        }
        if damage(&mut rng, 0.1) {
            line.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        }
        let mut bytes = line.into_bytes();
        if damage(&mut rng, 0.02) {
            // Not UTF-8: a stray continuation byte, a cut-off sequence.
            let bad: &[u8] = [&b"\xff"[..], b"\xc3", b"\xe3\x80", b"\x80"][rng.gen_range(0..4)];
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, bad.iter().copied());
        }
        lines.push(bytes);
    }
    let crlf = rng.gen_bool(0.3);
    let mut text = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        text.extend_from_slice(line);
        let last = i + 1 == lines.len();
        if !last || rng.gen_bool(0.7) {
            text.extend_from_slice(if crlf || damage(&mut rng, 0.05) {
                b"\r\n"
            } else {
                b"\n"
            });
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn loader_matches_the_reference_parser(seed in any::<u64>()) {
        let text = arb_text(seed);
        if let Ok(s) = std::str::from_utf8(&text) {
            assert_same(&parse_graph(s), &reference_parse(s), &text)?;
        }
        let dir = std::env::temp_dir().join(format!("neursc_loader_ref_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.graph");
        std::fs::write(&path, &text).unwrap();
        assert_same(&load_graph(&path), &reference_load(&path), &text)?;
    }
}

#[test]
fn generated_texts_cover_every_outcome() {
    // The property above is only as good as its inputs: they must load,
    // fail to parse in each way the reference knows, and fail as i/o.
    let mut seen: HashMap<&str, usize> = HashMap::new();
    let dir = std::env::temp_dir().join(format!("neursc_loader_cov_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.graph");
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..1024 {
        let text = arb_text(rng.gen());
        std::fs::write(&path, &text).unwrap();
        let kind = match reference_load(&path) {
            Ok(_) => "ok",
            Err(GraphError::Parse { message, .. }) => KINDS
                .iter()
                .copied()
                .find(|k| message.starts_with(k))
                .unwrap_or_else(|| panic!("unclassified error {message:?}")),
            Err(_) => "i/o",
        };
        *seen.entry(kind).or_default() += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
    for kind in KINDS.iter().chain(&["ok", "i/o"]) {
        assert!(seen.contains_key(kind), "no case of {kind:?} in {seen:?}");
    }
}

/// How each of the reference's parse errors begins.
const KINDS: &[&str] = &[
    "missing 't' header",
    "missing",
    "invalid",
    "duplicate 't' header",
    "duplicate 'v' record",
    "duplicate 'e' record",
    "self-loop",
    "edge (",
    "vertex id",
    "vertex count",
    "label",
    "header declares",
    "vertex ",
    "unknown record type",
];
