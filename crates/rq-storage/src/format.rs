//! The on-disk snapshot format.
//!
//! ```text
//! superblock:
//!   magic      "RQSNAP01"                      8 bytes
//!   version    u32 LE (= 1)
//!   num_nodes  u32 LE
//!   num_labels u32 LE
//!   num_shards u32 LE
//!   epoch      u64 LE   (graph epoch at snapshot time)
//!   sections   u32 LE   (section count)
//!   table      sections × { kind u8, shard u32, offset u64, len u64, crc u32 }
//!   crc        u32 LE   (CRC-32 of every superblock byte above)
//! payload: the sections, at the table's absolute offsets
//! ```
//!
//! Section kinds:
//!
//! * `0` **labels** (one, shard = 0): `count u32`, then `len u32 + utf8`
//!   per label name, in `LabelId` order.
//! * `1` **nodes** (one per shard): `lo u32, hi u32`, then per node in
//!   `[lo, hi)` a presence byte (`1` named, `0` anonymous) followed, if
//!   named, by `len u32 + utf8`.
//! * `2` **edges** (one per shard): `lo u32, hi u32, labels u32`, then per
//!   label a CSR over sources in `[lo, hi)`: `hi−lo+1` row offsets
//!   (`u32`), then `offsets[hi−lo]` destination node ids (`u32`).
//!
//! Shards partition the node-id space into contiguous ranges, so the
//! loader can decode them on independent threads and concatenate the
//! results without reshuffling. Every section is independently
//! checksummed; the loader verifies the superblock CRC before trusting
//! the table and each section CRC before decoding it, so a truncated file
//! or a flipped bit fails closed as [`StorageError::Corrupt`].

use crate::{crc32, StorageConfig, StorageError};
use rq_automata::Alphabet;
use rq_graph::{GraphDb, NodeId};
use std::collections::HashSet;
use std::path::Path;

pub(crate) const MAGIC: &[u8; 8] = b"RQSNAP01";
pub(crate) const VERSION: u32 = 1;

const KIND_LABELS: u8 = 0;
const KIND_NODES: u8 = 1;
const KIND_EDGES: u8 = 2;

/// What the superblock declared, returned alongside the decoded database.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotInfo {
    pub nodes: usize,
    pub labels: usize,
    pub shards: u32,
    pub epoch: u64,
    pub bytes: u64,
}

/// The contiguous node range `[lo, hi)` owned by shard `i` of `shards`
/// over `n` nodes.
pub fn shard_range(i: u32, shards: u32, n: u32) -> (u32, u32) {
    let shards = shards.max(1);
    let chunk = n.div_ceil(shards).max(1);
    let lo = (i * chunk).min(n);
    let hi = ((i + 1) * chunk).min(n);
    (lo, hi)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a section payload. Every
/// decode error is reported as corruption — never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("unexpected end of section at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-utf8 string".to_owned())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

struct Section {
    kind: u8,
    shard: u32,
    payload: Vec<u8>,
}

fn encode_labels(db: &GraphDb) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, db.alphabet().len() as u32);
    for l in db.alphabet().labels() {
        put_str(&mut buf, db.alphabet().name(l));
    }
    buf
}

fn encode_nodes(db: &GraphDb, lo: u32, hi: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, lo);
    put_u32(&mut buf, hi);
    for n in lo..hi {
        match db.node_name(NodeId(n)) {
            Some(name) => {
                buf.push(1);
                put_str(&mut buf, name);
            }
            None => buf.push(0),
        }
    }
    buf
}

fn encode_edges(db: &GraphDb, lo: u32, hi: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, lo);
    put_u32(&mut buf, hi);
    put_u32(&mut buf, db.alphabet().len() as u32);
    let rows = (hi - lo) as usize;
    for label in db.alphabet().labels() {
        // CSR over sources in [lo, hi): count, prefix-sum, fill.
        let mut counts = vec![0u32; rows];
        for &(s, _) in db.edges(label) {
            if s.0 >= lo && s.0 < hi {
                counts[(s.0 - lo) as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut dsts = vec![0u32; acc as usize];
        let mut next: Vec<u32> = offsets[..rows].to_vec();
        for &(s, d) in db.edges(label) {
            if s.0 >= lo && s.0 < hi {
                let slot = &mut next[(s.0 - lo) as usize];
                dsts[*slot as usize] = d.0;
                *slot += 1;
            }
        }
        for o in &offsets {
            put_u32(&mut buf, *o);
        }
        for d in &dsts {
            put_u32(&mut buf, *d);
        }
    }
    buf
}

/// Serialize `db` into a complete snapshot image (superblock + sections).
pub(crate) fn encode(db: &GraphDb, config: &StorageConfig, epoch: u64) -> Vec<u8> {
    let n = db.num_nodes() as u32;
    let shards = config.shards.max(1);
    let mut sections = vec![Section {
        kind: KIND_LABELS,
        shard: 0,
        payload: encode_labels(db),
    }];
    for i in 0..shards {
        let (lo, hi) = shard_range(i, shards, n);
        sections.push(Section {
            kind: KIND_NODES,
            shard: i,
            payload: encode_nodes(db, lo, hi),
        });
        sections.push(Section {
            kind: KIND_EDGES,
            shard: i,
            payload: encode_edges(db, lo, hi),
        });
    }

    // Superblock size: fixed head + table + trailing crc.
    let head = 8 + 4 + 4 + 4 + 4 + 8 + 4;
    let entry = 1 + 4 + 8 + 8 + 4;
    let sb_len = head + sections.len() * entry + 4;

    let mut sb = Vec::with_capacity(sb_len);
    sb.extend_from_slice(MAGIC);
    put_u32(&mut sb, VERSION);
    put_u32(&mut sb, n);
    put_u32(&mut sb, db.alphabet().len() as u32);
    put_u32(&mut sb, shards);
    put_u64(&mut sb, epoch);
    put_u32(&mut sb, sections.len() as u32);
    let mut offset = sb_len as u64;
    for s in &sections {
        sb.push(s.kind);
        put_u32(&mut sb, s.shard);
        put_u64(&mut sb, offset);
        put_u64(&mut sb, s.payload.len() as u64);
        put_u32(&mut sb, crc32::of(&s.payload));
        offset += s.payload.len() as u64;
    }
    let crc = crc32::of(&sb);
    put_u32(&mut sb, crc);
    debug_assert_eq!(sb.len(), sb_len);

    let mut out = sb;
    for s in sections {
        out.extend_from_slice(&s.payload);
    }
    out
}

struct TableEntry {
    kind: u8,
    shard: u32,
    offset: u64,
    len: u64,
    crc: u32,
}

/// Per label, the `(src, dst)` pairs whose source lives in one shard.
type EdgesByLabel = Vec<Vec<(NodeId, NodeId)>>;

/// Decoded per-shard columns, merged by [`decode`] in shard order.
struct ShardColumns {
    lo: u32,
    names: Vec<Option<String>>,
    edges: EdgesByLabel,
}

fn decode_nodes(payload: &[u8], shard: u32) -> Result<(u32, u32, Vec<Option<String>>), String> {
    let mut c = Cursor::new(payload);
    let lo = c.u32()?;
    let hi = c.u32()?;
    if hi < lo {
        return Err(format!("nodes shard {shard}: inverted range {lo}..{hi}"));
    }
    let mut names = Vec::with_capacity((hi - lo) as usize);
    for _ in lo..hi {
        names.push(match c.u8()? {
            0 => None,
            1 => Some(c.str()?),
            b => return Err(format!("nodes shard {shard}: bad presence byte {b}")),
        });
    }
    if !c.done() {
        return Err(format!("nodes shard {shard}: trailing bytes"));
    }
    Ok((lo, hi, names))
}

fn decode_edges(
    payload: &[u8],
    shard: u32,
    num_nodes: u32,
    num_labels: u32,
) -> Result<(u32, u32, EdgesByLabel), String> {
    let mut c = Cursor::new(payload);
    let lo = c.u32()?;
    let hi = c.u32()?;
    if hi < lo || hi > num_nodes {
        return Err(format!("edges shard {shard}: bad range {lo}..{hi}"));
    }
    let labels = c.u32()?;
    if labels != num_labels {
        return Err(format!(
            "edges shard {shard}: {labels} labels, superblock says {num_labels}"
        ));
    }
    let rows = (hi - lo) as usize;
    let mut per_label = Vec::with_capacity(labels as usize);
    for l in 0..labels {
        let mut offsets = Vec::with_capacity(rows + 1);
        for _ in 0..=rows {
            offsets.push(c.u32()?);
        }
        let total = *offsets.last().unwrap();
        let mut pairs = Vec::with_capacity(total as usize);
        let mut prev = 0u32;
        for (row, w) in offsets.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            if a != prev || b < a {
                return Err(format!(
                    "edges shard {shard} label {l}: non-monotone CSR offsets"
                ));
            }
            prev = b;
            let src = NodeId(lo + row as u32);
            for _ in a..b {
                let d = c.u32()?;
                if d >= num_nodes {
                    return Err(format!(
                        "edges shard {shard} label {l}: destination {d} out of range"
                    ));
                }
                pairs.push((src, NodeId(d)));
            }
        }
        per_label.push(pairs);
    }
    if !c.done() {
        return Err(format!("edges shard {shard}: trailing bytes"));
    }
    Ok((lo, hi, per_label))
}

/// Decode a snapshot image into a [`GraphDb`], verifying every checksum.
pub(crate) fn decode(bytes: &[u8], path: &Path) -> Result<(GraphDb, SnapshotInfo), StorageError> {
    let corrupt = |detail: String| StorageError::corrupt(path, detail);

    // Superblock head.
    let mut c = Cursor::new(bytes);
    let magic = c.take(8).map_err(&corrupt)?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:02x?}")));
    }
    let version = c.u32().map_err(&corrupt)?;
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }
    let num_nodes = c.u32().map_err(&corrupt)?;
    let num_labels = c.u32().map_err(&corrupt)?;
    let num_shards = c.u32().map_err(&corrupt)?;
    let epoch = c.u64().map_err(&corrupt)?;
    let num_sections = c.u32().map_err(&corrupt)?;
    // Guard the multiplication below against a corrupted count.
    if num_sections as u64 > 2 * num_shards as u64 + 1 {
        return Err(corrupt(format!(
            "section count {num_sections} inconsistent with {num_shards} shards"
        )));
    }
    let mut table = Vec::with_capacity(num_sections as usize);
    for _ in 0..num_sections {
        table.push(TableEntry {
            kind: c.u8().map_err(&corrupt)?,
            shard: c.u32().map_err(&corrupt)?,
            offset: c.u64().map_err(&corrupt)?,
            len: c.u64().map_err(&corrupt)?,
            crc: c.u32().map_err(&corrupt)?,
        });
    }
    let sb_end = c.pos;
    let declared = c.u32().map_err(&corrupt)?;
    let actual = crc32::of(&bytes[..sb_end]);
    if declared != actual {
        return Err(corrupt(format!(
            "superblock crc mismatch (declared {declared:08x}, computed {actual:08x})"
        )));
    }

    // Slice out and checksum every section before decoding any.
    let mut labels_payload: Option<&[u8]> = None;
    let mut node_sections: Vec<(u32, &[u8])> = Vec::new();
    let mut edge_sections: Vec<(u32, &[u8])> = Vec::new();
    for e in &table {
        let start =
            usize::try_from(e.offset).map_err(|_| corrupt("section offset overflow".into()))?;
        let len = usize::try_from(e.len).map_err(|_| corrupt("section length overflow".into()))?;
        let end = start
            .checked_add(len)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "section (kind {}, shard {}) extends past end of file",
                    e.kind, e.shard
                ))
            })?;
        let payload = &bytes[start..end];
        let actual = crc32::of(payload);
        if actual != e.crc {
            return Err(corrupt(format!(
                "section (kind {}, shard {}) crc mismatch (declared {:08x}, computed {actual:08x})",
                e.kind, e.shard, e.crc
            )));
        }
        match e.kind {
            KIND_LABELS => labels_payload = Some(payload),
            KIND_NODES => node_sections.push((e.shard, payload)),
            KIND_EDGES => edge_sections.push((e.shard, payload)),
            k => return Err(corrupt(format!("unknown section kind {k}"))),
        }
    }
    let labels_payload = labels_payload.ok_or_else(|| corrupt("missing labels section".into()))?;
    node_sections.sort_by_key(|&(shard, _)| shard);
    edge_sections.sort_by_key(|&(shard, _)| shard);
    if node_sections.len() != num_shards as usize || edge_sections.len() != num_shards as usize {
        return Err(corrupt(format!(
            "expected {num_shards} node + {num_shards} edge sections, found {} + {}",
            node_sections.len(),
            edge_sections.len()
        )));
    }

    // Labels.
    let mut lc = Cursor::new(labels_payload);
    let count = lc.u32().map_err(&corrupt)?;
    if count != num_labels {
        return Err(corrupt(format!(
            "labels section has {count} labels, superblock says {num_labels}"
        )));
    }
    let mut alphabet = Alphabet::new();
    for _ in 0..count {
        alphabet.intern(&lc.str().map_err(&corrupt)?);
    }
    if alphabet.len() != num_labels as usize {
        return Err(corrupt("duplicate label names in labels section".into()));
    }

    // Shards, decoded on parallel threads when there are several shards
    // and several cores.
    let decode_shard = |i: usize| -> Result<ShardColumns, String> {
        let (nshard, npay) = node_sections[i];
        let (eshard, epay) = edge_sections[i];
        let (nlo, nhi, names) = decode_nodes(npay, nshard)?;
        let (elo, ehi, edges) = decode_edges(epay, eshard, num_nodes, num_labels)?;
        if (nlo, nhi) != (elo, ehi) || nshard != eshard {
            return Err(format!(
                "shard {nshard}: node range {nlo}..{nhi} disagrees with edge range {elo}..{ehi}"
            ));
        }
        let (want_lo, want_hi) = shard_range(nshard, num_shards, num_nodes);
        if (nlo, nhi) != (want_lo, want_hi) {
            return Err(format!(
                "shard {nshard}: declared range {nlo}..{nhi}, expected {want_lo}..{want_hi}"
            ));
        }
        Ok(ShardColumns {
            lo: nlo,
            names,
            edges,
        })
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let shard_results: Vec<Result<ShardColumns, String>> = if num_shards > 1 && threads > 1 {
        std::thread::scope(|s| {
            let decode_shard = &decode_shard;
            let handles: Vec<_> = (0..num_shards as usize)
                .map(|i| s.spawn(move || decode_shard(i)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    } else {
        (0..num_shards as usize).map(decode_shard).collect()
    };

    let mut node_names: Vec<Option<String>> = Vec::with_capacity(num_nodes as usize);
    let mut edges_by_label: EdgesByLabel = vec![Vec::new(); num_labels as usize];
    for r in shard_results {
        let cols = r.map_err(&corrupt)?;
        if cols.lo as usize != node_names.len() {
            return Err(corrupt(format!(
                "shard ranges are not contiguous at node {}",
                node_names.len()
            )));
        }
        node_names.extend(cols.names);
        for (l, pairs) in cols.edges.into_iter().enumerate() {
            edges_by_label[l].extend(pairs);
        }
    }
    if node_names.len() != num_nodes as usize {
        return Err(corrupt(format!(
            "shards cover {} nodes, superblock says {num_nodes}",
            node_names.len()
        )));
    }
    let mut seen = HashSet::with_capacity(node_names.len());
    if let Some(name) = node_names.iter().flatten().find(|&n| !seen.insert(n)) {
        return Err(corrupt(format!(
            "duplicate node name {name:?} in nodes section"
        )));
    }

    let db = GraphDb::from_columns(alphabet, node_names, edges_by_label);
    let info = SnapshotInfo {
        nodes: num_nodes as usize,
        labels: num_labels as usize,
        shards: num_shards,
        epoch,
        bytes: bytes.len() as u64,
    };
    Ok((db, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::generate;
    use std::path::PathBuf;

    fn roundtrip(db: &GraphDb, shards: u32) -> GraphDb {
        let config = StorageConfig {
            shards,
            ..StorageConfig::default()
        };
        let bytes = encode(db, &config, 7);
        let (back, info) = decode(&bytes, &PathBuf::from("mem")).unwrap();
        assert_eq!(info.nodes, db.num_nodes());
        assert_eq!(info.labels, db.alphabet().len());
        assert_eq!(info.epoch, 7);
        back
    }

    fn assert_same(a: &GraphDb, b: &GraphDb) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.alphabet().len(), b.alphabet().len());
        for l in a.alphabet().labels() {
            assert_eq!(a.alphabet().name(l), b.alphabet().name(l));
            let mut ea = a.edges(l).to_vec();
            let mut eb = b.edges(l).to_vec();
            ea.sort();
            eb.sort();
            assert_eq!(ea, eb);
        }
        for n in a.nodes() {
            assert_eq!(a.node_name(n), b.node_name(n));
        }
    }

    #[test]
    fn roundtrips_generated_graphs_across_shard_counts() {
        let dbs = [
            generate::chain(10, "r"),
            generate::random_gnm(64, 200, &["a", "b", "c"], 42),
            GraphDb::new(),
        ];
        for db in &dbs {
            for shards in [1, 3, 4, 16] {
                assert_same(db, &roundtrip(db, shards));
            }
        }
    }

    #[test]
    fn roundtrips_anonymous_and_isolated_nodes() {
        let mut db = GraphDb::new();
        let a = db.node("a");
        let x = db.add_node();
        db.node("isolated");
        let r = db.label("r");
        db.add_edge(a, r, x);
        db.label("unused");
        assert_same(&db, &roundtrip(&db, 2));
    }

    #[test]
    fn shard_ranges_partition() {
        for n in [0u32, 1, 7, 64, 100] {
            for shards in [1u32, 2, 3, 4, 16] {
                let mut covered = 0;
                for i in 0..shards {
                    let (lo, hi) = shard_range(i, shards, n);
                    assert_eq!(lo, covered.min(n));
                    assert!(hi >= lo);
                    covered = hi.max(covered);
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn decode_rejects_truncation_and_bitflips() {
        let db = generate::random_gnm(32, 80, &["a", "b"], 7);
        let config = StorageConfig::default();
        let bytes = encode(&db, &config, 0);
        let p = PathBuf::from("mem");
        // Truncation anywhere must fail closed.
        for cut in [0, 4, 8, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut], &p).unwrap_err();
            assert!(err.to_string().starts_with("error[storage]:"), "{err}");
        }
        // A flipped bit anywhere must fail closed (superblock or section
        // crc catches it).
        for pos in [9, 20, 60, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match decode(&bad, &p) {
                Err(e) => assert!(e.to_string().starts_with("error[storage]:"), "{e}"),
                Ok((back, _)) => {
                    // Only acceptable if the flip landed in a section that
                    // decodes identically — impossible, since CRCs cover
                    // every byte. Equality would mean the flip was silent.
                    panic!(
                        "bit flip at {pos} went undetected (got {} nodes)",
                        back.num_nodes()
                    );
                }
            }
        }
    }
}
