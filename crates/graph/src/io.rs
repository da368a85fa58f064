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
//! parser validates it when present and tolerates its absence. Ids and
//! labels are 32-bit: a number that does not fit is an error at its line,
//! never wrapped, and so is a second `t` header.
//!
//! The format describes **simple** graphs, matching the in-memory
//! [`Graph`] invariants: self-loops (`e v v`) and duplicate `e` records
//! (in either orientation) are rejected with the offending line number
//! rather than silently canonicalized — a file that declares them is
//! corrupt, and dropping records would make the header counts lie.
//! (The programmatic [`GraphBuilder`](crate::GraphBuilder) keeps its
//! documented behavior of deduplicating repeated `add_edge` calls; only
//! the *external* format is strict.)
//!
//! [`load_graph`] streams: it scans the lines in place in its reader's
//! fixed buffer (a line cut by a refill goes through one reused buffer),
//! so it allocates nothing per line and never holds the raw text. ASCII
//! lines are split on bytes; any other line is checked as UTF-8 and split
//! on `char` whitespace, so both paths see the tokens
//! `str::split_whitespace` would. Duplicate edges are found by the CSR
//! build rather than an edge set held for the whole load: if the build
//! keeps fewer edges than there were `e` records, the first repeat in line
//! order is located on that error path. Either way the error reported is
//! the one on the earliest line, as if every line had been checked on its
//! own.

use crate::error::GraphError;
use crate::graph::{csr_from_edges, Graph};
use crate::types::{Label, VertexId};
use std::io::{BufRead, Write};
use std::path::Path;

/// Incremental `.graph` parser: lines are fed one at a time, so file loading
/// can stream through a reader without ever holding the whole text in
/// memory ([`parse_graph`] feeds it from an in-memory `&str`; both produce
/// identical results and errors).
#[derive(Default)]
struct LineParser {
    header_at: Option<usize>,
    m_declared: usize,
    labels: Vec<Label>,
    // `(declared degree, defining line)` per vertex; the line also marks the
    // vertex as defined so duplicate `v` records can be rejected.
    declared_degrees: Vec<Option<usize>>,
    defined_at: Vec<Option<usize>>,
    // Every `e` record as written, and where: a repeat is found from these
    // only once the build shows there is one.
    edges: Vec<(VertexId, VertexId)>,
    edge_lines: EdgeLines,
}

/// The line of each `e` record, kept as runs: `(record, line)` for every
/// record that is not on the line after the previous record's, so a file
/// whose `e` records are consecutive lines (every file this repository
/// writes) stores one entry rather than a line number per edge.
#[derive(Default)]
struct EdgeLines(Vec<(usize, usize)>);

impl EdgeLines {
    fn push(&mut self, record: usize, line: usize) {
        if self.0.last().is_none_or(|&(r, l)| l + (record - r) != line) {
            self.0.push((record, line));
        }
    }

    /// The line of a record already pushed.
    fn line(&self, record: usize) -> usize {
        let (r, l) = self.0[self.0.partition_point(|&(r, _)| r <= record) - 1];
        l + (record - r)
    }
}

/// The index of the first `\n` in `s`, found eight bytes at a time.
fn find_newline(s: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let (words, tail) = s.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        // The bytes of `x` that were `\n` are zero. The lowest high bit set
        // here marks the first zero byte (a borrow can only mark bytes
        // above a real zero), and little-endian order puts it first in `s`.
        let x = u64::from_le_bytes(*word) ^ NEWLINES;
        let zero = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero != 0 {
            return Some(8 * i + zero.trailing_zeros() as usize / 8);
        }
    }
    let at = 8 * words.len();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// `char::is_whitespace` on ASCII bytes: `\t`, `\n`, U+000B, `\x0c`, `\r`
/// and space — `u8::is_ascii_whitespace` leaves out U+000B.
fn is_separator(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// `<u64 as FromStr>::from_str` on bytes: an optional `+`, then one or
/// more ASCII digits, with no overflow.
fn parse_u64(s: &[u8]) -> Option<u64> {
    let digits = s.strip_prefix(b"+").unwrap_or(s);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |x, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        x.checked_mul(10)?.checked_add(u64::from(d))
    })
}

impl LineParser {
    /// Feeds one line without its `\n`. A line that is not UTF-8 is an
    /// [`GraphError::Io`] without a path (only a file can hold one).
    fn feed_line(&mut self, line_no: usize, line: &[u8]) -> Result<(), GraphError> {
        let fed = if line.is_ascii() {
            let tokens = line.split(|&b| is_separator(b)).filter(|t| !t.is_empty());
            self.feed(line_no, tokens)
        } else {
            match std::str::from_utf8(line) {
                Ok(s) => self.feed(line_no, s.split_whitespace().map(str::as_bytes)),
                // The error `BufRead::lines` gives.
                Err(_) => Err(GraphError::Io {
                    path: None,
                    source: std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    ),
                }),
            }
        };
        fed.map_err(|e| self.first_error(e))
    }

    /// `e`, unless a repeated edge on an earlier line is the first error.
    fn first_error(&self, e: GraphError) -> GraphError {
        first_duplicate_edge(&self.edges, &self.edge_lines).unwrap_or(e)
    }

    fn feed<'a>(
        &mut self,
        line_no: usize,
        mut tok: impl Iterator<Item = &'a [u8]>,
    ) -> Result<(), GraphError> {
        let Some(kind) = tok.next() else {
            return Ok(()); // blank line
        };
        if kind.starts_with(b"#") || kind.starts_with(b"%") {
            return Ok(());
        }
        let parse_error = |message: String| GraphError::Parse {
            line: line_no,
            message,
        };
        let mut parse_num = |what: &str| -> Result<u64, GraphError> {
            let s = tok
                .next()
                .ok_or_else(|| parse_error(format!("missing {what}")))?;
            parse_u64(s).ok_or_else(|| parse_error(format!("invalid {what}")))
        };
        match kind {
            b"t" => {
                if let Some(first) = self.header_at {
                    return Err(parse_error(format!(
                        "duplicate 't' header (first on line {first})"
                    )));
                }
                let n = parse_num("vertex count")?;
                if n > 1 << 32 {
                    return Err(parse_error(format!(
                        "vertex count {n} exceeds 4294967296 (vertex ids are 32-bit)"
                    )));
                }
                let m = parse_num("edge count")?;
                let (n, m) = (n as usize, m as usize);
                self.header_at = Some(line_no);
                self.m_declared = m;
                self.labels = vec![0; n];
                self.declared_degrees = vec![None; n];
                self.defined_at = vec![None; n];
            }
            b"v" => {
                let id = parse_num("vertex id")?;
                let label = parse_num("label")?;
                let label = Label::try_from(label)
                    .map_err(|_| parse_error(format!("label {label} does not fit in 32 bits")))?;
                let n = self.labels.len();
                if id >= n as u64 {
                    return Err(parse_error(format!(
                        "vertex id {id} exceeds declared count {n}"
                    )));
                }
                let id = id as usize;
                if let Some(first) = self.defined_at[id] {
                    return Err(parse_error(format!(
                        "duplicate 'v' record for vertex {id} (first defined on line {first})"
                    )));
                }
                self.defined_at[id] = Some(line_no);
                self.labels[id] = label;
                if let Some(d) = tok.next() {
                    let d = parse_u64(d)
                        .and_then(|d| usize::try_from(d).ok())
                        .ok_or_else(|| parse_error("invalid degree".into()))?;
                    self.declared_degrees[id] = Some(d);
                }
            }
            b"e" => {
                let u = parse_num("edge endpoint")?;
                let v = parse_num("edge endpoint")?;
                if u == v {
                    return Err(parse_error(format!(
                        "self-loop 'e {u} {u}' (graphs are simple)"
                    )));
                }
                let n = self.labels.len();
                if u >= n as u64 || v >= n as u64 {
                    return Err(parse_error(format!(
                        "edge ({u}, {v}) references a vertex outside the declared count {n}"
                    )));
                }
                // Both are below `n` ≤ 2^32, so they fit a vertex id.
                self.edge_lines.push(self.edges.len(), line_no);
                self.edges.push((u as VertexId, v as VertexId));
            }
            other => {
                return Err(parse_error(format!(
                    "unknown record type {:?}",
                    String::from_utf8_lossy(other)
                )));
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Graph, GraphError> {
        if self.header_at.is_none() {
            return Err(GraphError::Parse {
                line: 1,
                message: "missing 't' header".into(),
            });
        }
        let g = csr_from_edges(self.labels, &self.edges);
        if g.n_edges() != self.edges.len() {
            if let Some(e) = first_duplicate_edge(&self.edges, &self.edge_lines) {
                return Err(e);
            }
        }
        let m = self.m_declared;
        if g.n_edges() != m {
            return Err(GraphError::Parse {
                line: 1,
                message: format!("header declares {m} edges, found {}", g.n_edges()),
            });
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

/// The first `e` record, in line order, that repeats an earlier one in
/// either orientation, as the error its line raises. Runs on error paths
/// only, so it may sort.
fn first_duplicate_edge(edges: &[(VertexId, VertexId)], lines: &EdgeLines) -> Option<GraphError> {
    let key = |i: usize| {
        let (u, v) = edges[i];
        (u.min(v), u.max(v))
    };
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_unstable_by_key(|&i| (key(i), i));
    // Within a run of equal edges the second record is the first repeat,
    // and the run's first record is the one it repeats.
    let (first, repeat) = order
        .windows(2)
        .filter(|w| key(w[0]) == key(w[1]))
        .map(|w| (w[0], w[1]))
        .min_by_key(|&(_, repeat)| repeat)?;
    let (u, v) = edges[repeat];
    Some(GraphError::Parse {
        line: lines.line(repeat),
        message: format!(
            "duplicate 'e' record for edge ({u}, {v}) (first on line {})",
            lines.line(first)
        ),
    })
}

/// Parses a graph from `.graph`-format text.
pub fn parse_graph(text: &str) -> Result<Graph, GraphError> {
    let mut p = LineParser::default();
    for (idx, raw) in text.lines().enumerate() {
        p.feed_line(idx + 1, raw.as_bytes())?;
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

/// Loads a graph from a `.graph` file, streaming it: peak memory is the
/// parsed records plus one fixed read buffer, never the raw text. I/O
/// failures (a line that is not UTF-8 among them) name the file; parse
/// failures keep their line numbers, identical to [`parse_graph`] on the
/// same content.
pub fn load_graph(path: &Path) -> Result<Graph, GraphError> {
    let file = std::fs::File::open(path).map_err(|e| GraphError::io_at(path, e))?;
    let mut reader = std::io::BufReader::with_capacity(1 << 16, file);
    let mut p = LineParser::default();
    let name_file = |e: GraphError| match e {
        GraphError::Io { source, .. } => GraphError::io_at(path, source),
        parse => parse,
    };
    // The start of a line the last refill cut off.
    let mut partial: Vec<u8> = Vec::new();
    let mut line_no = 0;
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(p.first_error(GraphError::io_at(path, e))),
        };
        let mut rest = buf;
        while let Some(end) = find_newline(rest) {
            line_no += 1;
            let fed = if partial.is_empty() {
                p.feed_line(line_no, &rest[..end])
            } else {
                partial.extend_from_slice(&rest[..end]);
                let fed = p.feed_line(line_no, &partial);
                partial.clear();
                fed
            };
            fed.map_err(name_file)?;
            rest = &rest[end + 1..];
        }
        partial.extend_from_slice(rest);
        let consumed = buf.len();
        reader.consume(consumed);
    }
    if !partial.is_empty() {
        p.feed_line(line_no + 1, &partial).map_err(name_file)?;
    }
    p.finish()
}

/// Saves a graph to a `.graph` file through [`write_atomic`]: a failed or
/// interrupted save leaves the previous file, and I/O failures name the
/// file.
pub fn save_graph(g: &Graph, path: &Path) -> Result<(), GraphError> {
    write_atomic(path, format_graph(g).as_bytes()).map_err(|e| GraphError::io_at(path, e))
}

/// Durably replaces `path` with `bytes`: a sibling temp file named
/// `<file name>.tmp` (so `a.snap` and `a.model` in one directory never
/// share a temp), `write_all` + `sync_all`, then an atomic rename. A crash
/// at any point leaves the old file or the new one, never a torn one; a
/// failure removes the temp. The parent-directory fsync that makes the
/// rename itself survive power loss is best-effort: where a filesystem
/// refuses it, durability degrades but atomicity does not.
///
/// An existing target that is neither a file nor a directory — a device
/// or a pipe such as `/dev/stdout` or `/dev/full` — cannot be replaced by
/// a rename and is written in place; its write errors are still returned.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if std::fs::metadata(path).is_ok_and(|m| !m.is_file() && !m.is_dir()) {
        return std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .write_all(bytes);
    }
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

    /// `Err` as `(line, message)` for a parse failure.
    fn parse_failure(text: &str) -> (usize, String) {
        match parse_graph(text) {
            Err(GraphError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn second_header_is_rejected_at_its_line() {
        // It used to reset every label read so far to 0.
        let text = "t 3 2\nv 0 5 1\nv 1 6 2\nv 2 7 1\ne 0 1\ne 1 2\nt 3 2\n";
        let (line, message) = parse_failure(text);
        assert_eq!(line, 7);
        assert_eq!(message, "duplicate 't' header (first on line 1)");
    }

    #[test]
    fn numbers_beyond_u32_are_rejected_not_wrapped() {
        // `e 4294967296 1` used to load as the edge (0, 1).
        let (line, message) = parse_failure("t 2 1\nv 0 0 1\nv 1 0 1\ne 4294967296 1\n");
        assert_eq!(line, 4);
        assert!(message.contains("(4294967296, 1)"), "{message}");
        let (line, message) = parse_failure("t 2 0\nv 0 0\nv 4294967297 0\n");
        assert_eq!(line, 3);
        assert!(message.contains("vertex id 4294967297"), "{message}");
        // Label 4294967297 used to load as 1.
        let (line, message) = parse_failure("t 1 0\nv 0 4294967297 0\n");
        assert_eq!(line, 2);
        assert!(message.contains("label 4294967297"), "{message}");
        let (line, message) = parse_failure("t 4294967297 0\n");
        assert_eq!(line, 1);
        assert!(message.contains("vertex count 4294967297"), "{message}");
        // The largest label still loads.
        let g = parse_graph("t 1 0\nv 0 4294967295 0\n").unwrap();
        assert_eq!(g.label(0), u32::MAX);
    }

    #[test]
    fn numbers_parse_as_u64_from_str_does() {
        for s in [
            "0",
            "7",
            "+7",
            "007",
            "+",
            "-0",
            "-1",
            "++1",
            "1+",
            "1x",
            "x",
            "٣",
            "18446744073709551615",
            "18446744073709551616",
            "+018446744073709551615",
        ] {
            assert_eq!(parse_u64(s.as_bytes()), s.parse::<u64>().ok(), "{s:?}");
        }
    }

    #[test]
    fn find_newline_agrees_with_a_byte_scan() {
        // Bytes next to `\n` in value, or with the high bit set, are where a
        // word-at-a-time test could misfire.
        let alphabet = b"\n\x0b\x09\x8a\x80\xff\x01 0";
        let mut x: u64 = 1;
        for len in 0..40 {
            for _ in 0..200 {
                let s: Vec<u8> = (0..len)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        alphabet[(x >> 33) as usize % alphabet.len()]
                    })
                    .collect();
                let want = s.iter().position(|&b| b == b'\n');
                assert_eq!(find_newline(&s), want, "{s:?}");
            }
        }
    }

    #[test]
    fn edge_lines_give_back_every_line() {
        let lines = [3, 4, 5, 9, 10, 12, 13, 14, 100];
        let mut runs = EdgeLines::default();
        for (record, &line) in lines.iter().enumerate() {
            runs.push(record, line);
        }
        assert_eq!(runs.0.len(), 4, "one entry per run of consecutive lines");
        for (record, &line) in lines.iter().enumerate() {
            assert_eq!(runs.line(record), line);
        }
    }

    #[test]
    fn byte_separators_are_char_whitespace() {
        for b in 0u8..=127 {
            assert_eq!(is_separator(b), char::from(b).is_whitespace(), "{b:#04x}");
        }
    }

    #[test]
    fn streamed_load_matches_parse_across_buffer_refills() {
        // Well over one 64 KiB read buffer, with CRLF endings so lines
        // straddle refills at every offset, and no final newline.
        let g = crate::generate::erdos_renyi(3000, 9000, 5, 11);
        let text = format_graph(&g).replace('\n', "\r\n");
        let text = text.trim_end();
        let dir = std::env::temp_dir().join(format!("neursc_io_refill_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.graph");
        std::fs::write(&path, text).unwrap();
        assert_eq!(load_graph(&path).unwrap(), g);
        assert_eq!(parse_graph(text).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_graph_reports_write_errors() {
        // A `BufWriter` dropped unflushed used to turn this into `Ok(())`.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let g = parse_graph(SAMPLE).unwrap();
        match save_graph(&g, full) {
            Err(GraphError::Io { path: Some(p), .. }) => assert_eq!(p, full),
            other => panic!("expected an i/o error naming the file, got {other:?}"),
        }
    }

    #[test]
    fn save_graph_replaces_a_file_atomically() {
        let dir = std::env::temp_dir().join(format!("neursc_io_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.graph");
        std::fs::write(&path, "old contents").unwrap();
        let g = parse_graph(SAMPLE).unwrap();
        save_graph(&g, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format_graph(&g));
        assert_eq!(load_graph(&path).unwrap(), g);
        assert!(!dir.join("g.graph.tmp").exists(), "temp left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
