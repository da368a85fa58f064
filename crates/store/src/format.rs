//! The `NSCS` binary graph format: a packed, checksummed CSR image.
//!
//! Little-endian layout (`HEADER_LEN` = 40 bytes of fixed prefix):
//!
//! | bytes          | field                                        |
//! |----------------|----------------------------------------------|
//! | `[0..4)`       | magic `"NSCS"`                               |
//! | `[4..8)`       | format version (`u32`, currently 1)          |
//! | `[8..16)`      | FNV-1a-64 checksum of bytes `[16..end)`      |
//! | `[16..24)`     | vertex count `n` (`u64`)                     |
//! | `[24..32)`     | undirected edge count `m` (`u64`)            |
//! | `[32..36)`     | label count (`u32`)                          |
//! | `[36..40)`     | maximum degree (`u32`)                       |
//! | next `4n`      | vertex labels (`u32` each)                   |
//! | next `8(n+1)`  | CSR row offsets (`u64` each) — doubles as the|
//! |                | degree index: `deg(v) = off[v+1] − off[v]`   |
//! | next `8m`      | neighbor ids (`u32` each, `2m` entries)      |
//!
//! The checksum covers everything after itself (counts included), so any
//! single bit flip in the body fails verification; flips in the first 16
//! bytes fail the magic/version/checksum-field comparisons; truncation at
//! any byte fails the length equation before the checksum is even computed.

use std::path::Path;

use neursc_graph::Graph;

use crate::error::StoreError;
use neursc_graph::hash::fnv1a64;

/// File magic, first four bytes of every store.
pub const MAGIC: [u8; 4] = *b"NSCS";
/// Current format version.
pub const VERSION: u32 = 1;
/// Length of the fixed-size prefix (magic, version, checksum, counts).
pub const HEADER_LEN: usize = 40;

/// The decoded fixed header of a store image, with section geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Vertex count `n`.
    pub n_vertices: usize,
    /// Undirected edge count `m` (the adjacency holds `2m` entries).
    pub n_edges: usize,
    /// Declared label count.
    pub n_labels: usize,
    /// Declared maximum degree.
    pub max_degree: usize,
    /// Checksum stored in the header.
    pub checksum: u64,
}

impl Layout {
    /// Byte offset of the label array.
    pub fn labels_off(&self) -> usize {
        HEADER_LEN
    }

    /// Byte offset of the row-offset array.
    pub fn offsets_off(&self) -> usize {
        HEADER_LEN + 4 * self.n_vertices
    }

    /// Byte offset of the neighbor array.
    pub fn neighbors_off(&self) -> usize {
        self.offsets_off() + 8 * (self.n_vertices + 1)
    }

    /// Total image length implied by the counts.
    pub fn total_len(&self) -> usize {
        self.neighbors_off() + 8 * self.n_edges
    }
}

fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Total image length implied by header counts, with overflow checking
/// (an adversarial header must not wrap the length equation into passing).
fn expected_len(n: u64, m: u64) -> Option<u64> {
    let labels = n.checked_mul(4)?;
    let offsets = n.checked_add(1)?.checked_mul(8)?;
    let neighbors = m.checked_mul(8)?;
    (HEADER_LEN as u64)
        .checked_add(labels)?
        .checked_add(offsets)?
        .checked_add(neighbors)
}

/// Parses and validates the fixed header against the actual file length.
/// `prefix` must hold at least the first [`HEADER_LEN`] bytes (or be the
/// whole file, if shorter). Fails with [`StoreError::Corrupt`] on bad
/// magic, version skew, or a length that contradicts the counts.
pub fn parse_header(
    prefix: &[u8],
    file_len: u64,
    path: Option<&Path>,
) -> Result<Layout, StoreError> {
    let corrupt = |detail: String| StoreError::corrupt(path.map(Path::to_path_buf), detail);
    if prefix.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "file is {file_len} bytes, shorter than the {HEADER_LEN}-byte header"
        )));
    }
    if prefix[0..4] != MAGIC {
        return Err(corrupt(format!(
            "bad magic {:02x?} (expected {:02x?})",
            &prefix[0..4],
            MAGIC
        )));
    }
    let version = le_u32(&prefix[4..8]);
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported format version {version} (expected {VERSION})"
        )));
    }
    let checksum = le_u64(&prefix[8..16]);
    let n = le_u64(&prefix[16..24]);
    let m = le_u64(&prefix[24..32]);
    let n_labels = le_u32(&prefix[32..36]);
    let max_degree = le_u32(&prefix[36..40]);
    let expected = expected_len(n, m)
        .ok_or_else(|| corrupt(format!("header counts overflow (n={n}, m={m})")))?;
    if file_len != expected {
        return Err(corrupt(format!(
            "file is {file_len} bytes but counts (n={n}, m={m}) imply {expected}"
        )));
    }
    let oversize = |what: &str| corrupt(format!("{what} exceeds addressable memory"));
    Ok(Layout {
        n_vertices: usize::try_from(n).map_err(|_| oversize("vertex count"))?,
        n_edges: usize::try_from(m).map_err(|_| oversize("edge count"))?,
        n_labels: n_labels as usize,
        max_degree: max_degree as usize,
        checksum,
    })
}

/// Decodes a little-endian `u32` array section.
pub(crate) fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(le_u32).collect()
}

/// Decodes a little-endian `u64` array section.
pub(crate) fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(le_u64).collect()
}

/// Serializes a graph into a complete, checksummed `NSCS` image.
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let n = g.n_vertices();
    let m = g.n_edges();
    let lay = Layout {
        n_vertices: n,
        n_edges: m,
        n_labels: g.n_labels(),
        max_degree: g.max_degree(),
        checksum: 0,
    };
    let mut out = Vec::with_capacity(lay.total_len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    out.extend_from_slice(&(g.n_labels() as u32).to_le_bytes());
    out.extend_from_slice(&(g.max_degree() as u32).to_le_bytes());
    for v in g.vertices() {
        out.extend_from_slice(&g.label(v).to_le_bytes());
    }
    let mut acc = 0u64;
    out.extend_from_slice(&acc.to_le_bytes());
    for v in g.vertices() {
        acc += g.degree(v) as u64;
        out.extend_from_slice(&acc.to_le_bytes());
    }
    for v in g.vertices() {
        for &w in g.neighbors(v) {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    let ck = fnv1a64(&out[16..]);
    out[8..16].copy_from_slice(&ck.to_le_bytes());
    out
}

/// Packs a graph to `path` through [`neursc_graph::io::write_atomic`], so a
/// crash mid-write never leaves a half-written store under the final name.
/// Returns the number of bytes written.
pub fn pack_graph(g: &Graph, path: impl AsRef<Path>) -> Result<u64, StoreError> {
    let path = path.as_ref();
    let bytes = encode_graph(g);
    neursc_graph::io::write_atomic(path, &bytes).map_err(|e| StoreError::io_at(path, e))?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_graph::Graph;

    fn sample() -> Graph {
        Graph::from_edges(4, &[0, 1, 1, 2], &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn encode_then_parse_header_roundtrips() {
        let g = sample();
        let bytes = encode_graph(&g);
        let lay = parse_header(&bytes, bytes.len() as u64, None).unwrap();
        assert_eq!(lay.n_vertices, 4);
        assert_eq!(lay.n_edges, 4);
        assert_eq!(lay.n_labels, 3);
        assert_eq!(lay.max_degree, 3);
        assert_eq!(lay.total_len(), bytes.len());
        assert_eq!(lay.checksum, fnv1a64(&bytes[16..]));
    }

    #[test]
    fn header_rejects_bad_magic_version_and_length() {
        let bytes = encode_graph(&sample());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(parse_header(&bad, bad.len() as u64, None)
            .unwrap_err()
            .is_corruption());
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(parse_header(&bad, bad.len() as u64, None)
            .unwrap_err()
            .is_corruption());
        // Declared length no longer matches the file.
        assert!(parse_header(&bytes, bytes.len() as u64 - 1, None)
            .unwrap_err()
            .is_corruption());
        assert!(parse_header(&bytes[..10], 10, None)
            .unwrap_err()
            .is_corruption());
    }

    #[test]
    fn empty_graph_is_representable() {
        let g = Graph::from_edges(0, &[], &[]).unwrap();
        let bytes = encode_graph(&g);
        let lay = parse_header(&bytes, bytes.len() as u64, None).unwrap();
        assert_eq!(lay.n_vertices, 0);
        assert_eq!(lay.total_len(), bytes.len());
    }
}
