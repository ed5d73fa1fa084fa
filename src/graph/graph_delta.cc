#include "graph/graph_delta.h"

#include <algorithm>
#include <deque>

#include "common/binary_io.h"
#include "graph/graph_raw_access.h"

namespace gpar {

namespace {

// "GPARDLTA", little-endian — distinct from the graph/rule snapshot magics
// so a delta frame fed to the wrong codec fails on the first 8 bytes.
constexpr uint64_t kDeltaMagic = 0x41544C4452415047ull;

constexpr auto ByEdge = [](const auto& a, const auto& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.label != b.label) return a.label < b.label;
  return a.dst < b.dst;
};

// The one merge routine behind both Patch* entry points: applies the
// (already normalized) deletes and inserts in a single pass over the
// out-CSR, then re-derives the in-CSR and label index via the shared
// assembly routine — the same code path a from-scratch rebuild takes, which
// is what makes the result bit-identical to one.
//
// Preconditions: `dels` sorted/unique with every entry present in `g`;
// `fresh` sorted/unique with no entry present in `g` *except* those also in
// `dels` (delete-then-reinsert). Both orders match the (label, other)
// adjacency sort within each source node.
Graph MergePatched(const Graph& g, const std::vector<EdgeDelete>& dels,
                   const std::vector<EdgeInsert>& fresh) {
  const NodeId n = g.num_nodes();
  const auto& old_offsets = GraphRawAccess::out_offsets(g);
  const auto& old_adj = GraphRawAccess::out_adj(g);

  Graph out;
  GraphRawAccess::labels(out) = g.labels_ptr();
  GraphRawAccess::node_labels(out) = GraphRawAccess::node_labels(g);
  auto& offsets = GraphRawAccess::out_offsets(out);
  auto& adj = GraphRawAccess::out_adj(out);
  offsets.assign(n + 1, 0);
  adj.reserve(old_adj.size() + fresh.size() - dels.size());

  size_t next_ins = 0;  // cursor into `fresh`, sorted by src
  size_t next_del = 0;  // cursor into `dels`, sorted by src
  for (NodeId v = 0; v < n; ++v) {
    size_t lo = old_offsets[v], hi = old_offsets[v + 1];
    while (lo < hi || (next_ins < fresh.size() && fresh[next_ins].src == v)) {
      // Deletes first: when the next old entry is the next delete's target,
      // drop it. This must precede the insert comparison so a
      // delete-then-reinsert of the same edge removes the old copy before
      // the (equal) insert is spliced in.
      if (lo < hi && next_del < dels.size() && dels[next_del].src == v) {
        const AdjEntry de{dels[next_del].label, dels[next_del].dst};
        if (old_adj[lo] == de) {
          ++lo;
          ++next_del;
          continue;
        }
      }
      const bool has_insert =
          next_ins < fresh.size() && fresh[next_ins].src == v;
      if (!has_insert) {
        adj.push_back(old_adj[lo++]);
      } else {
        const AdjEntry ins{fresh[next_ins].label, fresh[next_ins].dst};
        if (lo < hi && old_adj[lo] < ins) {
          adj.push_back(old_adj[lo++]);
        } else {
          adj.push_back(ins);
          ++next_ins;
        }
      }
    }
    offsets[v + 1] = adj.size();
  }
  GraphRawAccess::FinishFromOutCsr(out);
  return out;
}

Result<GraphPatch> PatchImpl(const Graph& g,
                             std::span<const EdgeInsert> inserts,
                             std::span<const EdgeDelete> deletes) {
  const NodeId n = g.num_nodes();
  // Inserts stay strict — a dangling endpoint or uninterned label is a
  // producer bug. Deletes are tolerant (see EdgeDelete): anything that
  // doesn't name a present edge lands in `missing`.
  for (const EdgeInsert& e : inserts) {
    if (e.src >= n || e.dst >= n) {
      return Status::InvalidArgument("edge insert endpoint out of range");
    }
    if (e.label >= g.labels().size()) {
      return Status::InvalidArgument("edge insert label not interned");
    }
  }

  GraphPatch patch;

  std::vector<EdgeDelete> dels(deletes.begin(), deletes.end());
  std::sort(dels.begin(), dels.end(), ByEdge);
  dels.erase(std::unique(dels.begin(), dels.end()), dels.end());
  std::erase_if(dels, [&](const EdgeDelete& e) {
    return e.src >= n || e.dst >= n || e.label >= g.labels().size() ||
           !g.HasEdge(e.src, e.label, e.dst);
  });
  patch.missing = deletes.size() - dels.size();
  patch.edges_deleted = dels.size();

  // Sort + dedup the inserts, then drop ones already present — unless that
  // same edge is being deleted in this batch, in which case the insert is a
  // genuine re-add and must survive the filter.
  std::vector<EdgeInsert> fresh(inserts.begin(), inserts.end());
  std::sort(fresh.begin(), fresh.end(), ByEdge);
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  std::erase_if(fresh, [&](const EdgeInsert& e) {
    if (!g.HasEdge(e.src, e.label, e.dst)) return false;
    const EdgeDelete d{e.src, e.label, e.dst};
    return !std::binary_search(dels.begin(), dels.end(), d, ByEdge);
  });
  patch.duplicates = inserts.size() - fresh.size();
  patch.edges_inserted = fresh.size();

  patch.graph = MergePatched(g, dels, fresh);
  patch.applied = std::move(fresh);
  patch.applied_deletes = std::move(dels);
  return patch;
}

}  // namespace

std::string GraphDelta::Serialize() const {
  std::string payload;
  PutU64(&payload, sequence);
  PutU32(&payload, static_cast<uint32_t>(inserts.size()));
  for (const EdgeInsert& e : inserts) {
    PutU32(&payload, e.src);
    PutU32(&payload, e.label);
    PutU32(&payload, e.dst);
  }
  // Pure-insert batches keep the v1 framing byte-for-byte, so pre-deletion
  // consumers (and archived v1 frames) stay interoperable in both
  // directions; batches that delete need v2, and only frames that carry
  // their own label dictionary (the journaled/shipped ones) pay for v3.
  const uint32_t version = !label_defs.empty() ? kFormatVersionV3
                           : deletes.empty()   ? kFormatVersion
                                               : kFormatVersionV2;
  if (version >= kFormatVersionV2) {
    PutU32(&payload, static_cast<uint32_t>(deletes.size()));
    for (const EdgeDelete& e : deletes) {
      PutU32(&payload, e.src);
      PutU32(&payload, e.label);
      PutU32(&payload, e.dst);
    }
  }
  if (version >= kFormatVersionV3) {
    PutU32(&payload, static_cast<uint32_t>(label_defs.size()));
    for (const LabelDef& def : label_defs) {
      PutU32(&payload, def.id);
      PutString(&payload, def.name);
    }
  }
  std::string out;
  PutU64(&out, kDeltaMagic);
  PutU32(&out, version);
  PutU64(&out, payload.size());
  PutU64(&out, Fnv1a64(payload));
  out += payload;
  return out;
}

Result<size_t> GraphDelta::FrameSize(std::string_view bytes) {
  ByteReader r(bytes);
  uint64_t magic, payload_size;
  uint32_t version;
  if (!r.ReadU64(&magic) || !r.ReadU32(&version) ||
      !r.ReadU64(&payload_size)) {
    return Status::Corruption("graph delta: truncated header");
  }
  if (magic != kDeltaMagic) {
    return Status::Corruption("graph delta: bad magic");
  }
  if (version < kFormatVersion || version > kFormatVersionV3) {
    return Status::Corruption("graph delta: unsupported version " +
                              std::to_string(version));
  }
  return static_cast<size_t>(kFrameHeaderBytes + payload_size);
}

Result<GraphDelta> GraphDelta::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  uint64_t magic, payload_size, checksum;
  uint32_t version;
  if (!r.ReadU64(&magic) || !r.ReadU32(&version) || !r.ReadU64(&payload_size) ||
      !r.ReadU64(&checksum)) {
    return Status::Corruption("graph delta: truncated header");
  }
  if (magic != kDeltaMagic) {
    return Status::Corruption("graph delta: bad magic");
  }
  if (version < kFormatVersion || version > kFormatVersionV3) {
    return Status::Corruption("graph delta: unsupported version " +
                              std::to_string(version));
  }
  if (payload_size != r.remaining()) {
    return Status::Corruption("graph delta: payload size mismatch");
  }
  const std::string_view payload = bytes.substr(bytes.size() - r.remaining());
  if (Fnv1a64(payload) != checksum) {
    return Status::Corruption("graph delta: checksum mismatch");
  }
  GraphDelta delta;
  uint32_t count;
  if (!r.ReadU64(&delta.sequence) || !r.ReadU32(&count)) {
    return Status::Corruption("graph delta: truncated payload");
  }
  // Reserve bounded by the bytes actually present, so a corrupt count field
  // can't drive a huge allocation before the loop fails on the first read.
  delta.inserts.reserve(std::min<size_t>(count, r.remaining() / 12));
  for (uint32_t i = 0; i < count; ++i) {
    EdgeInsert e;
    if (!r.ReadU32(&e.src) || !r.ReadU32(&e.label) || !r.ReadU32(&e.dst)) {
      return Status::Corruption("graph delta: truncated payload");
    }
    delta.inserts.push_back(e);
  }
  if (version >= kFormatVersionV2) {
    if (!r.ReadU32(&count)) {
      return Status::Corruption("graph delta: truncated payload");
    }
    delta.deletes.reserve(std::min<size_t>(count, r.remaining() / 12));
    for (uint32_t i = 0; i < count; ++i) {
      EdgeDelete e;
      if (!r.ReadU32(&e.src) || !r.ReadU32(&e.label) || !r.ReadU32(&e.dst)) {
        return Status::Corruption("graph delta: truncated payload");
      }
      delta.deletes.push_back(e);
    }
  }
  if (version >= kFormatVersionV3) {
    if (!r.ReadU32(&count)) {
      return Status::Corruption("graph delta: truncated payload");
    }
    delta.label_defs.reserve(std::min<size_t>(count, r.remaining() / 8));
    for (uint32_t i = 0; i < count; ++i) {
      LabelDef def;
      if (!r.ReadU32(&def.id) || !r.ReadString(&def.name)) {
        return Status::Corruption("graph delta: truncated payload");
      }
      delta.label_defs.push_back(std::move(def));
    }
  }
  if (!r.exhausted()) {
    return Status::Corruption("graph delta: trailing bytes");
  }
  return delta;
}

void CollectLabelDefs(const Interner& labels, GraphDelta* delta) {
  std::vector<LabelId> ids;
  ids.reserve(delta->inserts.size() + delta->deletes.size());
  for (const EdgeInsert& e : delta->inserts) ids.push_back(e.label);
  for (const EdgeDelete& e : delta->deletes) ids.push_back(e.label);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  delta->label_defs.clear();
  delta->label_defs.reserve(ids.size());
  for (LabelId id : ids) {
    // An id the dictionary does not know cannot be named; leave it out —
    // `PatchGraph` rejects the edge that references it anyway.
    if (id >= labels.size()) continue;
    delta->label_defs.push_back({id, labels.Name(id)});
  }
}

Status ApplyLabelDefs(const GraphDelta& delta, Interner* labels) {
  for (const LabelDef& def : delta.label_defs) {
    if (def.id < labels->size()) {
      if (labels->Name(def.id) != def.name) {
        return Status::Corruption("label def mismatch: id " +
                                  std::to_string(def.id) + " is \"" +
                                  labels->Name(def.id) + "\", frame says \"" +
                                  def.name + "\"");
      }
      continue;
    }
    // Defs are sorted by id and frames replay in append order, so a
    // well-formed journal only ever extends the dictionary one id at a
    // time, exactly the way the live server interned it.
    if (def.id != labels->size()) {
      return Status::Corruption("label def skips ids: frame defines id " +
                                std::to_string(def.id) +
                                " but the dictionary has " +
                                std::to_string(labels->size()) + " labels");
    }
    if (labels->Intern(def.name) != def.id) {
      return Status::Corruption("label \"" + def.name +
                                "\" already interned under another id");
    }
  }
  return Status::OK();
}

Result<GraphPatch> PatchGraphWithDeletes(const Graph& g,
                                         std::span<const EdgeDelete> deletes) {
  return PatchImpl(g, {}, deletes);
}

Result<GraphPatch> PatchGraph(const Graph& g, const GraphDelta& delta) {
  return PatchImpl(g, delta.inserts, delta.deletes);
}

std::vector<std::pair<NodeId, uint32_t>> NodesWithinRadiusOfAny(
    const Graph& g, std::span<const NodeId> sources, uint32_t radius) {
  std::vector<std::pair<NodeId, uint32_t>> out;
  std::vector<uint32_t> dist(g.num_nodes(), static_cast<uint32_t>(-1));
  std::deque<NodeId> frontier;
  for (NodeId s : sources) {
    if (s < g.num_nodes() && dist[s] == static_cast<uint32_t>(-1)) {
      dist[s] = 0;
      frontier.push_back(s);
      out.emplace_back(s, 0);
    }
  }
  while (!frontier.empty()) {
    NodeId v = frontier.front();
    frontier.pop_front();
    if (dist[v] == radius) continue;
    auto visit = [&](NodeId w) {
      if (dist[w] == static_cast<uint32_t>(-1)) {
        dist[w] = dist[v] + 1;
        frontier.push_back(w);
        out.emplace_back(w, dist[w]);
      }
    };
    for (const AdjEntry& e : g.out_edges(v)) visit(e.other);
    for (const AdjEntry& e : g.in_edges(v)) visit(e.other);
  }
  return out;
}

std::vector<std::pair<NodeId, uint32_t>> DeltaAffectedRegion(
    const Graph& old_g, const Graph& new_g,
    std::span<const EdgeInsert> applied,
    std::span<const EdgeDelete> applied_deletes, uint32_t radius) {
  const DeltaFrontier f =
      DeltaFrontier::Compute(old_g, new_g, applied, applied_deletes, radius);
  return f.region();
}

namespace {

/// The bit edge `i` of a side owns (see DeltaFrontier).
uint64_t EdgeBit(size_t i) { return uint64_t{1} << (i % 64); }

/// Bit-parallel multi-source BFS: spreads each touched edge's bit from both
/// endpoints over undirected adjacency of `g`, one level per hop. Returns
/// the level-major masks (level r = bits within r hops) and appends every
/// node that received a bit to `reached`. Only nodes whose mask grew at
/// level r can grow their neighbors' masks at level r + 1, so each level
/// scans the adjacency of the previous level's frontier only.
template <typename Edge>
std::vector<uint64_t> SpreadEdgeBits(const Graph& g,
                                     const std::vector<Edge>& edges,
                                     uint32_t radius,
                                     std::vector<NodeId>* reached) {
  const size_t n = g.num_nodes();
  std::vector<uint64_t> bits((static_cast<size_t>(radius) + 1) * n, 0);
  std::vector<NodeId> frontier, next;
  for (size_t i = 0; i < edges.size(); ++i) {
    for (NodeId v : {edges[i].src, edges[i].dst}) {
      if (bits[v] == 0) frontier.push_back(v);
      bits[v] |= EdgeBit(i);
    }
  }
  reached->insert(reached->end(), frontier.begin(), frontier.end());
  for (uint32_t r = 1; r <= radius; ++r) {
    const uint64_t* prev = bits.data() + (r - 1) * n;
    uint64_t* cur = bits.data() + r * n;
    std::copy(prev, prev + n, cur);
    next.clear();
    for (NodeId v : frontier) {
      const uint64_t b = prev[v];
      auto spread = [&](NodeId w) {
        if ((cur[w] | b) == cur[w]) return;
        if (cur[w] == prev[w]) next.push_back(w);  // first growth this level
        cur[w] |= b;
      };
      for (const AdjEntry& e : g.out_edges(v)) spread(e.other);
      for (const AdjEntry& e : g.in_edges(v)) spread(e.other);
    }
    reached->insert(reached->end(), next.begin(), next.end());
    frontier.swap(next);
  }
  return bits;
}

}  // namespace

DeltaFrontier DeltaFrontier::Compute(
    const Graph& old_g, const Graph& new_g,
    std::span<const EdgeInsert> applied,
    std::span<const EdgeDelete> applied_deletes, uint32_t radius) {
  DeltaFrontier f;
  f.radius_ = radius;
  f.num_nodes_ = new_g.num_nodes();
  f.inserts_.assign(applied.begin(), applied.end());
  f.deletes_.assign(applied_deletes.begin(), applied_deletes.end());
  // Deltas add edges, never nodes: node labels agree across both graphs.
  for (const EdgeInsert& e : f.inserts_) {
    f.insert_triples_.push_back(
        {new_g.node_label(e.src), e.label, new_g.node_label(e.dst)});
  }
  for (const EdgeDelete& e : f.deletes_) {
    f.delete_triples_.push_back(
        {old_g.node_label(e.src), e.label, old_g.node_label(e.dst)});
  }
  std::vector<NodeId> reached;
  if (!f.inserts_.empty()) {
    f.ins_bits_ = SpreadEdgeBits(new_g, f.inserts_, radius, &reached);
  }
  if (!f.deletes_.empty()) {
    f.del_bits_ = SpreadEdgeBits(old_g, f.deletes_, radius, &reached);
  }
  std::sort(reached.begin(), reached.end());
  reached.erase(std::unique(reached.begin(), reached.end()), reached.end());
  f.region_.reserve(reached.size());
  for (NodeId v : reached) {
    uint32_t r = 0;
    while (f.InsertsWithin(v, r) == 0 && f.DeletesWithin(v, r) == 0) ++r;
    f.region_.emplace_back(v, r);
  }
  return f;
}

EdgeBits DeltaFrontier::BitsForTriple(LabelId src_label, LabelId edge_label,
                                      LabelId dst_label) const {
  EdgeBits out;
  auto same = [&](const Triple& t) {
    return t.src == src_label && t.edge == edge_label && t.dst == dst_label;
  };
  for (size_t i = 0; i < insert_triples_.size(); ++i) {
    if (same(insert_triples_[i])) out.inserts |= EdgeBit(i);
  }
  for (size_t i = 0; i < delete_triples_.size(); ++i) {
    if (same(delete_triples_[i])) out.deletes |= EdgeBit(i);
  }
  return out;
}

}  // namespace gpar
