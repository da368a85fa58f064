//! [`GraphStore`]: resident or chunk-streamed access to a packed `NSCS`
//! graph image.
//!
//! Both modes keep the label array and the row-offset array (which doubles
//! as the degree index) resident — together `12n` bytes. The adjacency
//! (`8m` bytes, the dominant term on real graphs) is either fully resident
//! or streamed: row-aligned edge chunks are loaded on demand behind a small
//! LRU of `Arc`-pinned buffers, so a partitioned estimation pass over a
//! graph much larger than memory touches only the rows of its current core
//! plus a bounded cache.
//!
//! Integrity: [`GraphStore::open`] verifies magic, version, the length
//! equation and the full-image FNV-1a-64 checksum **before** any adjacency
//! is handed out — a truncated or bit-flipped store fails with
//! [`StoreError::Corrupt`] at open, never mid-query. Streamed chunks are
//! additionally structure-checked (sorted strict rows, in-range ids, no
//! self-loops) as they load, guarding against a crafted image with a valid
//! checksum. Cross-row symmetry is only enforced when a full [`Graph`] is
//! materialized via [`GraphStore::to_graph`].

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use neursc_graph::hash::{fnv1a64, Fnv64};
use neursc_graph::types::{Label, VertexId};
use neursc_graph::{Graph, GraphError};
use neursc_match::candidates::{local_pruning_scoped, CandidateSets};
use neursc_match::profile::{all_profiles, profile_r1_into, subsumes, Profile};

use crate::error::StoreError;
use crate::format::{self, Layout, HEADER_LEN};

/// How the adjacency section is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// The whole adjacency is decoded into memory at open.
    Resident,
    /// Adjacency chunks are loaded on demand behind an LRU.
    Streamed {
        /// Soft chunk size in adjacency entries (each chunk is the longest
        /// row-aligned run not exceeding this many entries; a single row
        /// larger than the bound gets its own chunk).
        chunk_edges: usize,
        /// Maximum number of chunks pinned in the cache at once.
        max_chunks: usize,
    },
}

impl AccessMode {
    /// A streamed mode with defaults sized for ~4 MiB chunks and a ~32 MiB
    /// cache ceiling.
    pub fn streamed_default() -> Self {
        AccessMode::Streamed {
            chunk_edges: 1 << 20,
            max_chunks: 8,
        }
    }
}

/// Where streamed chunk bytes come from.
enum ChunkSource {
    /// A store file on disk; reads seek under the lock.
    File(Mutex<File>),
    /// A complete in-memory image (tests, oracle harnesses).
    Bytes(Arc<Vec<u8>>),
}

/// LRU state for streamed chunks. `entries` is tiny (≤ `max_chunks`), so
/// linear scans beat any map.
struct CacheState {
    entries: Vec<(usize, Arc<Vec<VertexId>>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

struct StreamedAdjacency {
    source: ChunkSource,
    /// Absolute byte offset of the neighbor section in the image.
    neighbors_off: u64,
    /// Row-aligned chunk boundaries: chunk `c` covers vertex rows
    /// `row_bounds[c]..row_bounds[c+1]`.
    row_bounds: Vec<usize>,
    cap: usize,
    cache: Mutex<CacheState>,
}

enum Adjacency {
    Resident(Vec<VertexId>),
    Streamed(StreamedAdjacency),
}

/// Hit/miss counters of the streamed chunk cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Row reads served from a pinned chunk.
    pub hits: u64,
    /// Row reads that had to load a chunk.
    pub misses: u64,
}

/// An induced subgraph materialized around a partition core: the closed
/// r-hop ball of the core, with a mapping back to global ids.
pub struct PartitionView {
    /// The induced subgraph on the ball, local ids `0..origin.len()`.
    pub graph: Graph,
    /// `origin[local] = global`, sorted ascending.
    pub origin: Vec<VertexId>,
}

impl PartitionView {
    /// Local id of a global vertex, if present in the view.
    pub fn local_of(&self, global: VertexId) -> Option<usize> {
        self.origin.binary_search(&global).ok()
    }
}

/// The working set of one query: the candidate union plus its one-hop halo,
/// with edges taken from union rows only (halo–halo edges are omitted —
/// downstream refinement, extraction and sampling never inspect them, and
/// omitting them keeps the working set proportional to the union size).
pub struct WorkingSet {
    /// Induced-on-union subgraph over union ∪ N(union), local ids.
    pub graph: Graph,
    /// `origin[local] = global`, sorted ascending.
    pub origin: Vec<VertexId>,
}

impl WorkingSet {
    /// Local id of a global vertex. Panics only if `global` is outside the
    /// working set, which for candidate localization cannot happen (every
    /// candidate is in the union by construction).
    pub fn local_of(&self, global: VertexId) -> Option<usize> {
        self.origin.binary_search(&global).ok()
    }

    /// Maps global candidate sets into working-set-local ids, preserving
    /// order (the mapping is monotone because `origin` is sorted).
    pub fn localize(&self, sets: &[Vec<VertexId>]) -> Result<CandidateSets, StoreError> {
        let mut local = Vec::with_capacity(sets.len());
        for set in sets {
            let mut s = Vec::with_capacity(set.len());
            for &v in set {
                let l = self.local_of(v).ok_or_else(|| {
                    StoreError::corrupt(
                        None,
                        format!("candidate {v} missing from its own working set"),
                    )
                })?;
                s.push(l as VertexId);
            }
            local.push(s);
        }
        Ok(CandidateSets { sets: local })
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A packed graph opened for querying — see the module docs for the
/// resident/streamed split and the integrity guarantees.
pub struct GraphStore {
    labels: Vec<Label>,
    /// `n + 1` cumulative degrees; `deg(v) = offsets[v+1] − offsets[v]`.
    offsets: Vec<u64>,
    n_labels: usize,
    max_degree: usize,
    n_edges: usize,
    /// Per-label vertex counts — the local-pruning work pre-charge table.
    label_freq: Vec<u64>,
    adjacency: Adjacency,
    path: Option<PathBuf>,
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphStore")
            .field("n_vertices", &self.n_vertices())
            .field("n_edges", &self.n_edges)
            .field("n_labels", &self.n_labels)
            .field("max_degree", &self.max_degree)
            .field("streamed", &self.is_streamed())
            .field("path", &self.path)
            .finish()
    }
}

impl GraphStore {
    /// Opens a store file, verifying integrity before returning.
    pub fn open(path: impl AsRef<Path>, mode: AccessMode) -> Result<GraphStore, StoreError> {
        let path = path.as_ref();
        match mode {
            AccessMode::Resident => {
                let bytes = std::fs::read(path).map_err(|e| StoreError::io_at(path, e))?;
                Self::from_image(bytes, mode, Some(path.to_path_buf()))
            }
            AccessMode::Streamed { .. } => {
                let mut f = File::open(path).map_err(|e| StoreError::io_at(path, e))?;
                let file_len = f.metadata().map_err(|e| StoreError::io_at(path, e))?.len();
                let mut prefix = vec![0u8; HEADER_LEN.min(file_len as usize)];
                f.read_exact(&mut prefix)
                    .map_err(|e| StoreError::io_at(path, e))?;
                let lay = format::parse_header(&prefix, file_len, Some(path))?;
                verify_file_checksum(&mut f, file_len, lay.checksum, path)?;
                // Decode the resident sections (labels + offsets) through a
                // fixed-size scratch buffer: a full-section byte buffer
                // would transiently double the section's memory, which is
                // exactly the peak the streamed mode exists to avoid.
                f.seek(SeekFrom::Start(HEADER_LEN as u64))
                    .map_err(|e| StoreError::io_at(path, e))?;
                let mut scratch = vec![0u8; 1 << 20];
                let labels = read_decoded(&mut f, &mut scratch, 4, lay.n_vertices, path, |b| {
                    format::decode_u32s(b)
                })?;
                let offsets =
                    read_decoded(&mut f, &mut scratch, 8, lay.n_vertices + 1, path, |b| {
                        format::decode_u64s(b)
                    })?;
                drop(scratch);
                Self::assemble(
                    lay,
                    labels,
                    offsets,
                    mode,
                    ChunkSource::File(Mutex::new(f)),
                    Some(path.to_path_buf()),
                )
            }
        }
    }

    /// Opens a complete in-memory image (tests, oracle harnesses) with the
    /// same verification as [`GraphStore::open`].
    pub fn open_bytes(bytes: Vec<u8>, mode: AccessMode) -> Result<GraphStore, StoreError> {
        Self::from_image(bytes, mode, None)
    }

    fn from_image(
        bytes: Vec<u8>,
        mode: AccessMode,
        path: Option<PathBuf>,
    ) -> Result<GraphStore, StoreError> {
        let lay = format::parse_header(&bytes, bytes.len() as u64, path.as_deref())?;
        if fnv1a64(&bytes[16..]) != lay.checksum {
            return Err(StoreError::corrupt(path, "checksum mismatch".to_string()));
        }
        let labels = format::decode_u32s(&bytes[lay.labels_off()..lay.offsets_off()]);
        let offsets = format::decode_u64s(&bytes[lay.offsets_off()..lay.neighbors_off()]);
        match mode {
            AccessMode::Resident => {
                let neighbors = format::decode_u32s(&bytes[lay.neighbors_off()..]);
                let store = Self::assemble_resident(lay, labels, offsets, neighbors, path)?;
                Ok(store)
            }
            AccessMode::Streamed { .. } => Self::assemble(
                lay,
                labels,
                offsets,
                mode,
                ChunkSource::Bytes(Arc::new(bytes)),
                path,
            ),
        }
    }

    fn assemble_resident(
        lay: Layout,
        labels: Vec<Label>,
        offsets: Vec<u64>,
        neighbors: Vec<VertexId>,
        path: Option<PathBuf>,
    ) -> Result<GraphStore, StoreError> {
        let store = Self::build_common(lay, labels, offsets, path)?;
        validate_rows(
            &neighbors,
            &store.offsets,
            0,
            store.labels.len(),
            store.path.as_deref(),
        )?;
        Ok(GraphStore {
            adjacency: Adjacency::Resident(neighbors),
            ..store
        })
    }

    fn assemble(
        lay: Layout,
        labels: Vec<Label>,
        offsets: Vec<u64>,
        mode: AccessMode,
        source: ChunkSource,
        path: Option<PathBuf>,
    ) -> Result<GraphStore, StoreError> {
        let store = Self::build_common(lay, labels, offsets, path)?;
        let AccessMode::Streamed {
            chunk_edges,
            max_chunks,
        } = mode
        else {
            return Err(StoreError::corrupt(
                store.path,
                "internal: assemble called with resident mode".to_string(),
            ));
        };
        let chunk_edges = chunk_edges.max(1) as u64;
        let cap = max_chunks.max(1);
        let n = store.labels.len();
        let mut row_bounds = vec![0usize];
        let mut start = 0usize;
        while start < n {
            let mut end = start + 1;
            while end < n && store.offsets[end + 1] - store.offsets[start] <= chunk_edges {
                end += 1;
            }
            row_bounds.push(end);
            start = end;
        }
        Ok(GraphStore {
            adjacency: Adjacency::Streamed(StreamedAdjacency {
                source,
                neighbors_off: lay.neighbors_off() as u64,
                row_bounds,
                cap,
                cache: Mutex::new(CacheState {
                    entries: Vec::new(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                }),
            }),
            ..store
        })
    }

    /// Validates and installs the always-resident sections; the adjacency
    /// placeholder is empty-resident and replaced by the caller.
    fn build_common(
        lay: Layout,
        labels: Vec<Label>,
        offsets: Vec<u64>,
        path: Option<PathBuf>,
    ) -> Result<GraphStore, StoreError> {
        let corrupt = |detail: String| StoreError::corrupt(path.clone(), detail);
        let n = lay.n_vertices;
        if offsets.first() != Some(&0) {
            return Err(corrupt("row offsets must start at 0".to_string()));
        }
        if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
            return Err(corrupt(format!(
                "row offsets not monotone: {} before {}",
                w[0], w[1]
            )));
        }
        if offsets.last() != Some(&(2 * lay.n_edges as u64)) {
            return Err(corrupt(format!(
                "row offsets end at {:?} but the edge count implies {}",
                offsets.last(),
                2 * lay.n_edges
            )));
        }
        let mut label_freq = vec![0u64; lay.n_labels];
        for (v, &l) in labels.iter().enumerate() {
            if (l as usize) >= lay.n_labels {
                return Err(corrupt(format!(
                    "vertex {v} has label {l}, outside the declared {} labels",
                    lay.n_labels
                )));
            }
            label_freq[l as usize] += 1;
        }
        let actual_max = offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        if actual_max != lay.max_degree {
            return Err(corrupt(format!(
                "declared max degree {} but rows imply {actual_max}",
                lay.max_degree
            )));
        }
        debug_assert_eq!(labels.len(), n);
        Ok(GraphStore {
            labels,
            offsets,
            n_labels: lay.n_labels,
            max_degree: lay.max_degree,
            n_edges: lay.n_edges,
            label_freq,
            adjacency: Adjacency::Resident(Vec::new()),
            path,
        })
    }

    /// Vertex count.
    pub fn n_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Undirected edge count.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Declared label count.
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The label of vertex `v`.
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// The degree of vertex `v`, straight from the offset (degree) index —
    /// no adjacency access.
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Cumulative degree up to (excluding) vertex `v` — `offsets[v]`, valid
    /// for `v ∈ 0..=n`. The edge-balance metric of the partitioner.
    pub fn cumulative_degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// How many data vertices carry label `l` (0 for out-of-range labels).
    pub fn label_frequency(&self, l: Label) -> u64 {
        self.label_freq.get(l as usize).copied().unwrap_or(0)
    }

    /// The exact number of work-meter steps whole-graph local pruning
    /// charges for query `q` on this graph: one step per (query vertex,
    /// same-label data vertex) pair. Partitioned filtering pre-charges this
    /// so budget semantics are bit-identical to the monolithic path.
    pub fn local_pruning_work(&self, q: &Graph) -> u64 {
        q.vertices().map(|u| self.label_frequency(q.label(u))).sum()
    }

    /// Whether the adjacency is chunk-streamed.
    pub fn is_streamed(&self) -> bool {
        matches!(self.adjacency, Adjacency::Streamed(_))
    }

    /// The store file, if this store was opened from one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Chunk-cache counters (zero for resident stores).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.adjacency {
            Adjacency::Resident(_) => CacheStats::default(),
            Adjacency::Streamed(s) => {
                let c = lock(&s.cache);
                CacheStats {
                    hits: c.hits,
                    misses: c.misses,
                }
            }
        }
    }

    /// Appends the sorted neighbor list of `v` to `out`.
    pub fn copy_row(&self, v: VertexId, out: &mut Vec<VertexId>) -> Result<(), StoreError> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        match &self.adjacency {
            Adjacency::Resident(neighbors) => {
                out.extend_from_slice(&neighbors[lo..hi]);
                Ok(())
            }
            Adjacency::Streamed(s) => {
                let (chunk, base) = self.load_chunk_for_row(s, v as usize)?;
                out.extend_from_slice(&chunk[lo - base..hi - base]);
                Ok(())
            }
        }
    }

    /// Loads (or fetches from cache) the chunk containing vertex row `row`.
    /// Returns the chunk and the adjacency-entry index of its first entry.
    fn load_chunk_for_row(
        &self,
        s: &StreamedAdjacency,
        row: usize,
    ) -> Result<(Arc<Vec<VertexId>>, usize), StoreError> {
        let c = s.row_bounds.partition_point(|&b| b <= row) - 1;
        let r0 = s.row_bounds[c];
        let r1 = s.row_bounds[c + 1];
        let base = self.offsets[r0] as usize;
        let end = self.offsets[r1] as usize;
        let mut cache = lock(&s.cache);
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(e) = cache.entries.iter_mut().find(|e| e.0 == c) {
            e.2 = tick;
            let chunk = Arc::clone(&e.1);
            cache.hits += 1;
            return Ok((chunk, base));
        }
        cache.misses += 1;
        let byte_lo = s.neighbors_off + 4 * base as u64;
        let byte_len = 4 * (end - base);
        let mut buf = vec![0u8; byte_len];
        match &s.source {
            ChunkSource::File(f) => {
                let mut f = lock(f);
                f.seek(SeekFrom::Start(byte_lo))
                    .and_then(|_| f.read_exact(&mut buf))
                    .map_err(|e| StoreError::Io {
                        path: self.path.clone(),
                        source: e,
                    })?;
            }
            ChunkSource::Bytes(bytes) => {
                buf.copy_from_slice(&bytes[byte_lo as usize..byte_lo as usize + byte_len]);
            }
        }
        let decoded = format::decode_u32s(&buf);
        // Structure-check the chunk's rows before serving any of them.
        let chunk_offsets: Vec<u64> = self.offsets[r0..=r1]
            .iter()
            .map(|&o| o - base as u64)
            .collect();
        validate_rows(
            &decoded,
            &chunk_offsets,
            r0,
            self.labels.len(),
            self.path.as_deref(),
        )?;
        let arc = Arc::new(decoded);
        if cache.entries.len() >= s.cap {
            if let Some((idx, _)) = cache.entries.iter().enumerate().min_by_key(|(_, e)| e.2) {
                cache.entries.swap_remove(idx);
            }
        }
        cache.entries.push((c, Arc::clone(&arc), tick));
        Ok((arc, base))
    }

    /// Materializes the full graph (symmetry-validated). Resident-scale
    /// memory — intended for moderate graphs and test oracles.
    pub fn to_graph(&self) -> Result<Graph, StoreError> {
        let n = self.n_vertices();
        let mut neighbors: Vec<VertexId> = Vec::with_capacity(2 * self.n_edges);
        for v in 0..n {
            self.copy_row(v as VertexId, &mut neighbors)?;
        }
        let offsets: Vec<usize> = self.offsets.iter().map(|&o| o as usize).collect();
        Graph::from_csr_parts(self.labels.clone(), offsets, neighbors)
            .map_err(|e| self.graph_corrupt(e))
    }

    fn graph_corrupt(&self, e: GraphError) -> StoreError {
        StoreError::corrupt(self.path.clone(), format!("invalid graph structure: {e}"))
    }

    /// Local pruning of query `q` restricted to core vertices
    /// `core.start..core.end`, returning per-query-vertex **global** ids in
    /// ascending order. Bit-identical to the corresponding slice of
    /// whole-graph `local_pruning(q, g, r)`: for `r = 1` profiles are
    /// rebuilt row-by-row from the shared [`profile_r1_into`] definition
    /// (no view, no halo); for `r ≥ 2` an induced r-ball view is
    /// materialized, on which core vertices have exactly their global
    /// degrees and profiles.
    pub fn local_pruning_core(
        &self,
        q: &Graph,
        core: Range<VertexId>,
        radius: u32,
    ) -> Result<Vec<Vec<VertexId>>, StoreError> {
        if radius <= 1 {
            self.pruning_core_r1(q, core)
        } else {
            self.pruning_core_deep(q, core, radius)
        }
    }

    fn pruning_core_r1(
        &self,
        q: &Graph,
        core: Range<VertexId>,
    ) -> Result<Vec<Vec<VertexId>>, StoreError> {
        let q_profiles = all_profiles(q, 1);
        // Query vertices grouped by label, ascending — mirrors the
        // per-label candidate loop of `neursc_match::candidates`.
        let mut q_by_label: Vec<Vec<VertexId>> = vec![Vec::new(); q.n_labels()];
        for u in q.vertices() {
            q_by_label[q.label(u) as usize].push(u);
        }
        let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); q.n_vertices()];
        let mut row: Vec<VertexId> = Vec::new();
        let mut prof: Profile = Vec::new();
        for v in core {
            let lv = self.label(v);
            let Some(us) = q_by_label.get(lv as usize).filter(|us| !us.is_empty()) else {
                continue;
            };
            row.clear();
            self.copy_row(v, &mut row)?;
            let dv = row.len();
            profile_r1_into(lv, row.iter().map(|&w| self.label(w)), &mut prof);
            for &u in us {
                if dv >= q.degree(u) && subsumes(&prof, &q_profiles[u as usize]) {
                    sets[u as usize].push(v);
                }
            }
        }
        Ok(sets)
    }

    fn pruning_core_deep(
        &self,
        q: &Graph,
        core: Range<VertexId>,
        radius: u32,
    ) -> Result<Vec<Vec<VertexId>>, StoreError> {
        let view = self.partition_view(core.clone(), radius)?;
        let profiles = all_profiles(&view.graph, radius);
        let core_local = |lv: VertexId| {
            let g = view.origin[lv as usize];
            g >= core.start && g < core.end
        };
        let cs = local_pruning_scoped(q, &view.graph, radius, &profiles, &core_local);
        Ok(cs
            .sets
            .into_iter()
            .map(|s| s.into_iter().map(|lv| view.origin[lv as usize]).collect())
            .collect())
    }

    /// Materializes the induced subgraph on the closed `radius`-hop ball of
    /// `core`. Core vertices keep exactly their global degrees and
    /// radius-`radius` profiles (the ball is closed under paths of length
    /// ≤ `radius` from the core).
    pub fn partition_view(
        &self,
        core: Range<VertexId>,
        radius: u32,
    ) -> Result<PartitionView, StoreError> {
        let n = self.n_vertices();
        let mut in_ball = vec![false; n];
        let mut frontier: Vec<VertexId> = core.clone().collect();
        for &v in &frontier {
            in_ball[v as usize] = true;
        }
        let mut row: Vec<VertexId> = Vec::new();
        for _ in 0..radius {
            let mut next = Vec::new();
            for &v in &frontier {
                row.clear();
                self.copy_row(v, &mut row)?;
                for &w in &row {
                    if !in_ball[w as usize] {
                        in_ball[w as usize] = true;
                        next.push(w);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let origin: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| in_ball[v as usize])
            .collect();
        let graph = self.induced_on(&origin, |v| in_ball[v as usize])?;
        Ok(PartitionView { graph, origin })
    }

    /// Builds the working set of a candidate union: vertices
    /// `union ∪ N(union)`, edges from union rows only. `union` must be
    /// sorted ascending and deduplicated.
    pub fn induced_working_set(&self, union: &[VertexId]) -> Result<WorkingSet, StoreError> {
        debug_assert!(union.windows(2).all(|w| w[0] < w[1]));
        let mut verts: Vec<VertexId> = union.to_vec();
        let mut row: Vec<VertexId> = Vec::new();
        for &w in union {
            row.clear();
            self.copy_row(w, &mut row)?;
            verts.extend_from_slice(&row);
        }
        verts.sort_unstable();
        verts.dedup();
        let origin = verts;
        let local = |g: VertexId| -> usize {
            // Every id here came from `union` or a union row, so it is in
            // `origin` by construction.
            origin.partition_point(|&x| x < g)
        };
        let in_union = |g: VertexId| union.binary_search(&g).is_ok();
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); origin.len()];
        for &w in union {
            row.clear();
            self.copy_row(w, &mut row)?;
            let wl = local(w);
            for &x in &row {
                let xl = local(x);
                adj[wl].push(xl as VertexId);
                if !in_union(x) {
                    adj[xl].push(wl as VertexId);
                }
            }
        }
        let mut offsets = Vec::with_capacity(origin.len() + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::new();
        for list in &mut adj {
            list.sort_unstable();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        let labels: Vec<Label> = origin.iter().map(|&g| self.label(g)).collect();
        let graph =
            Graph::from_csr_parts(labels, offsets, neighbors).map_err(|e| self.graph_corrupt(e))?;
        Ok(WorkingSet { graph, origin })
    }

    /// Induced subgraph on `origin` (sorted ascending); `member` must agree
    /// with `origin` membership.
    fn induced_on(
        &self,
        origin: &[VertexId],
        member: impl Fn(VertexId) -> bool,
    ) -> Result<Graph, StoreError> {
        let mut offsets = Vec::with_capacity(origin.len() + 1);
        offsets.push(0usize);
        let mut neighbors: Vec<VertexId> = Vec::new();
        let mut row: Vec<VertexId> = Vec::new();
        for &g in origin {
            row.clear();
            self.copy_row(g, &mut row)?;
            for &w in &row {
                if member(w) {
                    neighbors.push(origin.partition_point(|&x| x < w) as VertexId);
                }
            }
            offsets.push(neighbors.len());
        }
        let labels: Vec<Label> = origin.iter().map(|&g| self.label(g)).collect();
        Graph::from_csr_parts(labels, offsets, neighbors).map_err(|e| self.graph_corrupt(e))
    }
}

/// Streams bytes `[16..file_len)` of an open store file through FNV-1a-64
/// and compares against the header's stored checksum, without retaining the
/// adjacency in memory. Leaves the file position unspecified.
/// Reads `count` fixed-width items from `f` through `scratch`, decoding
/// slice by slice so peak memory is the output vector plus one scratch
/// buffer — never a whole-section byte copy.
fn read_decoded<T>(
    f: &mut File,
    scratch: &mut [u8],
    width: usize,
    count: usize,
    path: &Path,
    decode: impl Fn(&[u8]) -> Vec<T>,
) -> Result<Vec<T>, StoreError> {
    let mut out: Vec<T> = Vec::with_capacity(count);
    let mut remaining = width * count;
    let per_read = scratch.len() - scratch.len() % width.max(1);
    while remaining > 0 {
        let take = remaining.min(per_read);
        f.read_exact(&mut scratch[..take])
            .map_err(|e| StoreError::io_at(path, e))?;
        out.extend(decode(&scratch[..take]));
        remaining -= take;
    }
    Ok(out)
}

fn verify_file_checksum(
    f: &mut File,
    file_len: u64,
    expected: u64,
    path: &Path,
) -> Result<(), StoreError> {
    f.seek(SeekFrom::Start(16))
        .map_err(|e| StoreError::io_at(path, e))?;
    let mut hasher = Fnv64::new();
    let mut remaining = file_len - 16;
    let mut buf = vec![0u8; (1usize << 20).min(remaining as usize).max(1)];
    while remaining > 0 {
        let take = (remaining as usize).min(buf.len());
        f.read_exact(&mut buf[..take])
            .map_err(|e| StoreError::io_at(path, e))?;
        hasher.update(&buf[..take]);
        remaining -= take as u64;
    }
    if hasher.finish() != expected {
        return Err(StoreError::corrupt(
            Some(path.to_path_buf()),
            "checksum mismatch".to_string(),
        ));
    }
    Ok(())
}

/// Structure-checks adjacency rows: each row sorted strictly ascending,
/// ids in range, no self-loops. `first_row` is the global id of the row at
/// `row_offsets[0]`; `row_offsets` are relative to `neighbors[0]`.
fn validate_rows(
    neighbors: &[VertexId],
    row_offsets: &[u64],
    first_row: usize,
    n: usize,
    path: Option<&Path>,
) -> Result<(), StoreError> {
    let corrupt = |detail: String| StoreError::corrupt(path.map(Path::to_path_buf), detail);
    if row_offsets.last().copied().unwrap_or(0) as usize != neighbors.len() {
        return Err(corrupt(format!(
            "adjacency section has {} entries but offsets imply {:?}",
            neighbors.len(),
            row_offsets.last()
        )));
    }
    for (i, w) in row_offsets.windows(2).enumerate() {
        let v = (first_row + i) as VertexId;
        let row = &neighbors[w[0] as usize..w[1] as usize];
        if row.windows(2).any(|p| p[0] >= p[1]) {
            return Err(corrupt(format!(
                "adjacency list of vertex {v} is unsorted or has duplicates"
            )));
        }
        for &u in row {
            if (u as usize) >= n {
                return Err(corrupt(format!(
                    "vertex {v} lists neighbor {u}, outside 0..{n}"
                )));
            }
            if u == v {
                return Err(corrupt(format!("vertex {v} lists a self-loop")));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::encode_graph;
    use neursc_match::candidates::local_pruning;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, extra_edges: usize, n_labels: u32, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<Label> = (0..n).map(|_| rng.gen_range(0..n_labels)).collect();
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        // Spanning path keeps the graph connected-ish and degree ≥ 1.
        for v in 1..n {
            edges.push((v as VertexId - 1, v as VertexId));
        }
        for _ in 0..extra_edges {
            let a = rng.gen_range(0..n) as VertexId;
            let b = rng.gen_range(0..n) as VertexId;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        Graph::from_edges(n, &labels, &edges).unwrap()
    }

    fn tiny_query() -> Graph {
        Graph::from_edges(3, &[0, 1, 0], &[(0, 1), (1, 2)]).unwrap()
    }

    fn streamed(chunk_edges: usize, max_chunks: usize) -> AccessMode {
        AccessMode::Streamed {
            chunk_edges,
            max_chunks,
        }
    }

    #[test]
    fn resident_roundtrip_preserves_the_graph() {
        let g = random_graph(64, 200, 4, 1);
        let store = GraphStore::open_bytes(encode_graph(&g), AccessMode::Resident).unwrap();
        assert_eq!(store.n_vertices(), g.n_vertices());
        assert_eq!(store.n_edges(), g.n_edges());
        assert_eq!(store.n_labels(), g.n_labels());
        assert_eq!(store.max_degree(), g.max_degree());
        assert_eq!(store.to_graph().unwrap(), g);
        assert!(!store.is_streamed());
    }

    #[test]
    fn streamed_rows_match_resident_even_with_tiny_cache() {
        let g = random_graph(80, 300, 4, 2);
        let bytes = encode_graph(&g);
        let store = GraphStore::open_bytes(bytes, streamed(16, 2)).unwrap();
        assert!(store.is_streamed());
        let mut row = Vec::new();
        for v in g.vertices() {
            row.clear();
            store.copy_row(v, &mut row).unwrap();
            assert_eq!(row.as_slice(), g.neighbors(v), "row {v}");
            assert_eq!(store.degree(v), g.degree(v));
            assert_eq!(store.label(v), g.label(v));
        }
        let stats = store.cache_stats();
        assert!(stats.misses > 0, "tiny cache must have missed");
        assert_eq!(store.to_graph().unwrap(), g);
    }

    #[test]
    fn streamed_cache_hits_on_locality() {
        let g = random_graph(40, 100, 3, 3);
        let store = GraphStore::open_bytes(encode_graph(&g), streamed(1 << 20, 4)).unwrap();
        let mut row = Vec::new();
        for v in g.vertices() {
            row.clear();
            store.copy_row(v, &mut row).unwrap();
        }
        let stats = store.cache_stats();
        assert_eq!(stats.misses, 1, "one chunk covers the whole graph");
        assert_eq!(stats.hits, g.n_vertices() as u64 - 1);
    }

    #[test]
    fn label_frequency_and_pruning_work() {
        let g = random_graph(50, 80, 3, 4);
        let store = GraphStore::open_bytes(encode_graph(&g), AccessMode::Resident).unwrap();
        for l in 0..3u32 {
            let expect = g.vertices().filter(|&v| g.label(v) == l).count() as u64;
            assert_eq!(store.label_frequency(l), expect);
        }
        assert_eq!(store.label_frequency(99), 0);
        let q = tiny_query();
        let expect: u64 = q
            .vertices()
            .map(|u| g.vertices().filter(|&v| g.label(v) == q.label(u)).count() as u64)
            .sum();
        assert_eq!(store.local_pruning_work(&q), expect);
    }

    #[test]
    fn core_pruning_concatenates_to_whole_graph_r1() {
        let g = random_graph(60, 150, 3, 5);
        let q = tiny_query();
        let whole = local_pruning(&q, &g, 1);
        for mode in [AccessMode::Resident, streamed(32, 2)] {
            let store = GraphStore::open_bytes(encode_graph(&g), mode).unwrap();
            for k in [1u32, 2, 3, 7] {
                let n = g.n_vertices() as VertexId;
                let step = n.div_ceil(k);
                let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); q.n_vertices()];
                let mut start = 0;
                while start < n {
                    let end = (start + step).min(n);
                    let part = store.local_pruning_core(&q, start..end, 1).unwrap();
                    for (u, s) in part.into_iter().enumerate() {
                        sets[u].extend(s);
                    }
                    start = end;
                }
                for u in q.vertices() {
                    assert_eq!(sets[u as usize], whole.get(u), "k={k}, u={u}");
                }
            }
        }
    }

    #[test]
    fn core_pruning_concatenates_to_whole_graph_r2() {
        let g = random_graph(40, 80, 3, 6);
        let q = tiny_query();
        let whole = local_pruning(&q, &g, 2);
        let store = GraphStore::open_bytes(encode_graph(&g), streamed(64, 3)).unwrap();
        let n = g.n_vertices() as VertexId;
        let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); q.n_vertices()];
        for start in (0..n).step_by(13) {
            let end = (start + 13).min(n);
            let part = store.local_pruning_core(&q, start..end, 2).unwrap();
            for (u, s) in part.into_iter().enumerate() {
                sets[u].extend(s);
            }
        }
        for u in q.vertices() {
            assert_eq!(sets[u as usize], whole.get(u), "u={u}");
        }
    }

    #[test]
    fn partition_view_preserves_core_degrees_and_labels() {
        let g = random_graph(50, 120, 4, 7);
        let store = GraphStore::open_bytes(encode_graph(&g), streamed(32, 2)).unwrap();
        let core = 10u32..25;
        let view = store.partition_view(core.clone(), 1).unwrap();
        for vg in core {
            let lv = view.local_of(vg).unwrap();
            assert_eq!(view.graph.degree(lv as VertexId), g.degree(vg));
            assert_eq!(view.graph.label(lv as VertexId), g.label(vg));
        }
    }

    #[test]
    fn working_set_preserves_union_rows_exactly() {
        let g = random_graph(60, 150, 3, 8);
        let store = GraphStore::open_bytes(encode_graph(&g), streamed(32, 2)).unwrap();
        let union: Vec<VertexId> = (0..g.n_vertices() as VertexId).step_by(3).collect();
        let ws = store.induced_working_set(&union).unwrap();
        for &v in &union {
            let lv = ws.local_of(v).unwrap() as VertexId;
            let mapped: Vec<VertexId> = ws
                .graph
                .neighbors(lv)
                .iter()
                .map(|&w| ws.origin[w as usize])
                .collect();
            assert_eq!(mapped, g.neighbors(v), "union row {v} altered");
        }
        // Halo vertices keep only their union edges.
        for (lv, &gv) in ws.origin.iter().enumerate() {
            if union.binary_search(&gv).is_err() {
                for &w in ws.graph.neighbors(lv as VertexId) {
                    assert!(union.binary_search(&ws.origin[w as usize]).is_ok());
                }
            }
        }
    }

    #[test]
    fn localize_maps_candidates_order_preserving() {
        let g = random_graph(30, 60, 3, 9);
        let store = GraphStore::open_bytes(encode_graph(&g), AccessMode::Resident).unwrap();
        let q = tiny_query();
        let whole = local_pruning(&q, &g, 1);
        let union = whole.union();
        if union.is_empty() {
            return;
        }
        let ws = store.induced_working_set(&union).unwrap();
        let local = ws.localize(&whole.sets).unwrap();
        for u in q.vertices() {
            let back: Vec<VertexId> = local
                .get(u)
                .iter()
                .map(|&lv| ws.origin[lv as usize])
                .collect();
            assert_eq!(back, whole.get(u));
        }
    }

    #[test]
    fn open_missing_file_is_io_not_corrupt() {
        let e = GraphStore::open("/nonexistent/neursc.nscs", AccessMode::Resident).unwrap_err();
        assert!(!e.is_corruption());
    }

    #[test]
    fn file_roundtrip_in_both_modes() {
        let g = random_graph(64, 200, 4, 10);
        let dir = std::env::temp_dir().join(format!("neursc_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round.nscs");
        crate::format::pack_graph(&g, &path).unwrap();
        for mode in [AccessMode::Resident, streamed(64, 2)] {
            let store = GraphStore::open(&path, mode).unwrap();
            assert_eq!(store.to_graph().unwrap(), g);
            assert_eq!(store.path(), Some(path.as_path()));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crafted_image_with_valid_checksum_is_rejected() {
        // Build a syntactically well-formed image whose adjacency has an
        // unsorted row, then re-stamp the checksum: structure checks must
        // still reject it in both modes.
        let g = Graph::from_edges(3, &[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut bytes = encode_graph(&g);
        let lay = crate::format::parse_header(&bytes, bytes.len() as u64, None).unwrap();
        let nb = lay.neighbors_off();
        // Row of vertex 0 is [1, 2]; swap to [2, 1].
        bytes[nb..nb + 4].copy_from_slice(&2u32.to_le_bytes());
        bytes[nb + 4..nb + 8].copy_from_slice(&1u32.to_le_bytes());
        let ck = fnv1a64(&bytes[16..]);
        bytes[8..16].copy_from_slice(&ck.to_le_bytes());
        let e = GraphStore::open_bytes(bytes.clone(), AccessMode::Resident).unwrap_err();
        assert!(e.is_corruption());
        // Streamed: open succeeds (rows load lazily) or fails; any row
        // access must fail before bad adjacency is served.
        match GraphStore::open_bytes(bytes, streamed(2, 2)) {
            Err(e) => assert!(e.is_corruption()),
            Ok(store) => {
                let mut row = Vec::new();
                assert!(store.copy_row(0, &mut row).unwrap_err().is_corruption());
            }
        }
    }
}
