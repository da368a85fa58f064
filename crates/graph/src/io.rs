//! The `.graph` text format used by the paper's datasets.
//!
//! The seven data graphs of the evaluation (Table 2) are distributed in the
//! format of Sun & Luo's in-memory subgraph-matching study \[89\] (the
//! RapidsAtHKUST/SubgraphMatching repository the paper takes its ground
//! truth from):
//!
//! ```text
//! t <n_vertices> <n_edges>
//! v <id> <label> <degree>
//! ...
//! e <u> <v>
//! ...
//! ```
//!
//! The declared degree is redundant (recomputable from the edge list); the
//! parser validates it when present and tolerates its absence.
//!
//! The format describes **simple** graphs, matching the in-memory
//! [`Graph`] invariants: self-loops (`e v v`) and duplicate `e` records
//! (in either orientation) are rejected with the offending line number
//! rather than silently canonicalized — a file that declares them is
//! corrupt, and dropping records would make the header counts lie.
//! (The programmatic [`GraphBuilder`] keeps its documented behavior of
//! deduplicating repeated `add_edge` calls; only the *external* format is
//! strict.)

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use crate::types::{Label, VertexId};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Incremental `.graph` parser: lines are fed one at a time, so file loading
/// can stream through a [`std::io::BufRead`] without ever holding the whole
/// text in memory ([`parse_graph`] feeds it from an in-memory `&str`; both
/// produce byte-identical results and errors).
struct LineParser {
    n_declared: Option<usize>,
    m_declared: Option<usize>,
    labels: Vec<Label>,
    // `(declared degree, defining line)` per vertex; the line also marks the
    // vertex as defined so duplicate `v` records can be rejected.
    declared_degrees: Vec<Option<usize>>,
    defined_at: Vec<Option<usize>>,
    edges: Vec<(VertexId, VertexId)>,
    // Canonical `(min, max)` pair → defining line, for duplicate detection.
    edge_at: std::collections::HashMap<(VertexId, VertexId), usize>,
}

impl LineParser {
    fn new() -> Self {
        LineParser {
            n_declared: None,
            m_declared: None,
            labels: Vec::new(),
            declared_degrees: Vec::new(),
            defined_at: Vec::new(),
            edges: Vec::new(),
            edge_at: std::collections::HashMap::new(),
        }
    }

    fn feed(&mut self, line_no: usize, raw: &str) -> Result<(), GraphError> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            return Ok(());
        }
        let mut tok = line.split_whitespace();
        let Some(kind) = tok.next() else {
            return Ok(()); // unreachable: trimmed non-empty line has a token
        };
        let parse_num = |s: Option<&str>, what: &str| -> Result<u64, GraphError> {
            s.ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|_| GraphError::Parse {
                line: line_no,
                message: format!("invalid {what}"),
            })
        };
        match kind {
            "t" => {
                let n = parse_num(tok.next(), "vertex count")? as usize;
                self.n_declared = Some(n);
                self.m_declared = Some(parse_num(tok.next(), "edge count")? as usize);
                self.labels = vec![0; n];
                self.declared_degrees = vec![None; n];
                self.defined_at = vec![None; n];
            }
            "v" => {
                let id = parse_num(tok.next(), "vertex id")? as usize;
                let label = parse_num(tok.next(), "label")? as Label;
                let n = self.labels.len();
                if id >= n {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: format!("vertex id {id} exceeds declared count {n}"),
                    });
                }
                if let Some(first) = self.defined_at[id] {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: format!(
                            "duplicate 'v' record for vertex {id} (first defined on line {first})"
                        ),
                    });
                }
                self.defined_at[id] = Some(line_no);
                self.labels[id] = label;
                if let Some(d) = tok.next() {
                    let d = d.parse::<usize>().map_err(|_| GraphError::Parse {
                        line: line_no,
                        message: "invalid degree".into(),
                    })?;
                    self.declared_degrees[id] = Some(d);
                }
            }
            "e" => {
                let u = parse_num(tok.next(), "edge endpoint")? as VertexId;
                let v = parse_num(tok.next(), "edge endpoint")? as VertexId;
                if u == v {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: format!("self-loop 'e {u} {u}' (graphs are simple)"),
                    });
                }
                let n = self.labels.len();
                if (u as usize) >= n || (v as usize) >= n {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: format!(
                            "edge ({u}, {v}) references a vertex outside the declared count {n}"
                        ),
                    });
                }
                let key = (u.min(v), u.max(v));
                if let Some(first) = self.edge_at.insert(key, line_no) {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: format!(
                            "duplicate 'e' record for edge ({u}, {v}) (first on line {first})"
                        ),
                    });
                }
                self.edges.push((u, v));
            }
            other => {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!("unknown record type {other:?}"),
                });
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Graph, GraphError> {
        let n = self.n_declared.ok_or(GraphError::Parse {
            line: 1,
            message: "missing 't' header".into(),
        })?;
        let mut b = GraphBuilder::new(n);
        for (i, &l) in self.labels.iter().enumerate() {
            b.set_label(i as VertexId, l);
        }
        for (u, v) in self.edges {
            b.add_edge(u, v)?;
        }
        let g = b.build();
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
                if g.degree(v as VertexId) != *d {
                    return Err(GraphError::Parse {
                        // Report at the `v` record that made the claim.
                        line: self.defined_at[v].unwrap_or(1),
                        message: format!(
                            "vertex {v} declares degree {d}, edge list gives {}",
                            g.degree(v as VertexId)
                        ),
                    });
                }
            }
        }
        Ok(g)
    }
}

/// Parses a graph from `.graph`-format text.
pub fn parse_graph(text: &str) -> Result<Graph, GraphError> {
    let mut p = LineParser::new();
    for (idx, raw) in text.lines().enumerate() {
        p.feed(idx + 1, raw)?;
    }
    p.finish()
}

/// Serializes a graph to `.graph`-format text.
pub fn format_graph(g: &Graph) -> String {
    let mut out = String::with_capacity(16 * (g.n_vertices() + g.n_edges()));
    out.push_str(&format!("t {} {}\n", g.n_vertices(), g.n_edges()));
    for v in g.vertices() {
        out.push_str(&format!("v {} {} {}\n", v, g.label(v), g.degree(v)));
    }
    for e in g.edges() {
        out.push_str(&format!("e {} {}\n", e.u, e.v));
    }
    out
}

/// Loads a graph from a `.graph` file, streaming it line-by-line — peak
/// memory is the parsed records, never the raw text plus the records. I/O
/// failures name the file; parse failures keep their line numbers,
/// byte-identical to [`parse_graph`] on the same content.
pub fn load_graph(path: &Path) -> Result<Graph, GraphError> {
    let file = std::fs::File::open(path).map_err(|e| GraphError::io_at(path, e))?;
    let reader = std::io::BufReader::new(file);
    let mut p = LineParser::new();
    for (idx, raw) in reader.lines().enumerate() {
        let raw = raw.map_err(|e| GraphError::io_at(path, e))?;
        p.feed(idx + 1, &raw)?;
    }
    p.finish()
}

/// Saves a graph to a `.graph` file. I/O failures name the file.
pub fn save_graph(g: &Graph, path: &Path) -> Result<(), GraphError> {
    let file = std::fs::File::create(path).map_err(|e| GraphError::io_at(path, e))?;
    let mut w = BufWriter::new(file);
    w.write_all(format_graph(g).as_bytes())
        .map_err(|e| GraphError::io_at(path, e))?;
    Ok(())
}

/// Durably replaces `path` with `bytes`: a sibling temp file named
/// `<file name>.tmp` (so `a.snap` and `a.model` in one directory never
/// share a temp), `write_all` + `sync_all`, then an atomic rename. A crash
/// at any point leaves the old file or the new one, never a torn one; a
/// failure removes the temp. The parent-directory fsync that makes the
/// rename itself survive power loss is best-effort: where a filesystem
/// refuses it, durability degrades but atomicity does not.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    } else if let Some(Ok(dir)) = path.parent().map(std::fs::File::open) {
        let _ = dir.sync_all();
    }
    written
}

use std::io::BufRead;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_keeps_temps_apart_and_cleans_up_after_a_failure() {
        let dir = std::env::temp_dir().join(format!("neursc_write_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (snap, model) = (dir.join("a.snap"), dir.join("a.model"));
        write_atomic(&snap, b"old").unwrap();

        // Block `a.snap`'s temp: that write fails and the old bytes stay,
        // while `a.model` (temp `a.model.tmp`) is unaffected.
        std::fs::create_dir(dir.join("a.snap.tmp")).unwrap();
        assert!(write_atomic(&snap, b"new").is_err());
        assert_eq!(std::fs::read(&snap).unwrap(), b"old");
        write_atomic(&model, b"model").unwrap();
        assert_eq!(std::fs::read(&model).unwrap(), b"model");
        assert!(!dir.join("a.model.tmp").exists(), "temp renamed away");

        // A failure after the temp was written (the target is a non-empty
        // directory, so the rename fails) removes the temp.
        let target = dir.join("occupied");
        std::fs::create_dir(&target).unwrap();
        std::fs::write(target.join("x"), b"x").unwrap();
        assert!(write_atomic(&target, b"bytes").is_err());
        assert!(!dir.join("occupied.tmp").exists(), "temp left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    const SAMPLE: &str = "t 4 4\nv 0 0 2\nv 1 1 2\nv 2 1 3\nv 3 0 1\ne 0 1\ne 1 2\ne 0 2\ne 2 3\n";

    #[test]
    fn parse_roundtrip() {
        let g = parse_graph(SAMPLE).unwrap();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.label(2), 1);
        let text = format_graph(&g);
        let g2 = parse_graph(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("# header comment\n\n% another\n{SAMPLE}");
        assert!(parse_graph(&text).is_ok());
    }

    #[test]
    fn degree_mismatch_is_rejected() {
        let bad = "t 2 1\nv 0 0 5\nv 1 0 1\ne 0 1\n";
        assert!(matches!(parse_graph(bad), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn degree_mismatch_reports_the_declaring_line() {
        // Vertex 1's record on line 3 lies about its degree.
        let bad = "t 2 1\nv 0 0 1\nv 1 0 7\ne 0 1\n";
        match parse_graph(bad) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 3, "wrong line in {message:?}");
                assert!(message.contains("vertex 1"));
                assert!(message.contains("7"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_vertex_record_is_rejected() {
        // Same id twice — the second would silently overwrite the label.
        let bad = "t 2 1\nv 0 0 1\nv 0 3 1\nv 1 0 1\ne 0 1\n";
        match parse_graph(bad) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("duplicate"), "message: {message:?}");
                assert!(message.contains("line 2"), "message: {message:?}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_vertex_record_with_identical_fields_is_still_rejected() {
        let bad = "t 1 0\nv 0 0 0\nv 0 0 0\n";
        assert!(matches!(parse_graph(bad), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn self_loop_is_rejected_with_its_line() {
        let bad = "t 2 2\nv 0 0 2\nv 1 0 2\ne 0 1\ne 1 1\n";
        match parse_graph(bad) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 5);
                assert!(message.contains("self-loop"), "message: {message:?}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_edge_record_is_rejected_with_both_lines() {
        let bad = "t 2 2\nv 0 0 1\nv 1 0 1\ne 0 1\ne 0 1\n";
        match parse_graph(bad) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 5);
                assert!(message.contains("duplicate"), "message: {message:?}");
                assert!(message.contains("line 4"), "message: {message:?}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn reversed_duplicate_edge_is_still_a_duplicate() {
        // `e 1 0` after `e 0 1`: same undirected edge, must be rejected even
        // though the header count (2) would also catch the dedup downstream.
        let bad = "t 2 2\nv 0 0 1\nv 1 0 1\ne 0 1\ne 1 0\n";
        match parse_graph(bad) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 5);
                assert!(message.contains("duplicate"), "message: {message:?}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_edge_is_rejected_even_when_header_count_would_balance() {
        // Header says 1 edge and exactly 1 distinct edge survives dedup —
        // before the explicit guard this file parsed successfully.
        let bad = "t 2 1\nv 0 0 1\nv 1 0 1\ne 0 1\ne 1 0\n";
        assert!(matches!(parse_graph(bad), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn edge_endpoint_out_of_range_is_rejected_with_its_line() {
        let bad = "t 2 1\nv 0 0 1\nv 1 0 0\ne 0 5\n";
        match parse_graph(bad) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("declared count"), "message: {message:?}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn edge_count_mismatch_is_rejected() {
        let bad = "t 2 3\nv 0 0 1\nv 1 0 1\ne 0 1\n";
        assert!(matches!(parse_graph(bad), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn missing_header_is_rejected() {
        assert!(parse_graph("v 0 0 0\n").is_err());
    }

    #[test]
    fn unknown_record_is_rejected() {
        let bad = "t 1 0\nv 0 0 0\nx 1 2\n";
        let err = parse_graph(bad).unwrap_err();
        assert!(err.to_string().contains("unknown record"));
    }

    #[test]
    fn vertex_id_out_of_declared_range_rejected() {
        let bad = "t 1 0\nv 5 0 0\n";
        assert!(parse_graph(bad).is_err());
    }

    #[test]
    fn degree_field_optional() {
        let ok = "t 2 1\nv 0 3\nv 1 4\ne 0 1\n";
        let g = parse_graph(ok).unwrap();
        assert_eq!(g.label(1), 4);
    }

    #[test]
    fn load_error_names_the_missing_file() {
        let path = std::env::temp_dir().join("neursc_io_no_such_file.graph");
        let err = load_graph(&path).unwrap_err();
        assert!(matches!(err, GraphError::Io { path: Some(_), .. }));
        assert!(err.to_string().contains("neursc_io_no_such_file.graph"));
    }

    #[test]
    fn streamed_load_reports_same_line_numbers_as_in_memory_parse() {
        // The streaming loader must keep the typed, line-numbered errors of
        // the in-memory parser — same line, same message.
        let bad = "t 2 2\nv 0 0 2\nv 1 0 2\ne 0 1\ne 1 1\n";
        let dir = std::env::temp_dir().join("neursc_graph_io_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.graph");
        std::fs::write(&path, bad).unwrap();
        let from_text = parse_graph(bad).unwrap_err();
        let from_file = load_graph(&path).unwrap_err();
        assert_eq!(from_text.to_string(), from_file.to_string());
        match from_file {
            GraphError::Parse { line, .. } => assert_eq!(line, 5),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_roundtrip() {
        let g = parse_graph(SAMPLE).unwrap();
        let dir = std::env::temp_dir().join("neursc_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.graph");
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }
}
