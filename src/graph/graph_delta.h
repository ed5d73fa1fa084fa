#ifndef GPAR_GRAPH_GRAPH_DELTA_H_
#define GPAR_GRAPH_GRAPH_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace gpar {

/// One edge insertion src --label--> dst. Endpoints must already exist in
/// the graph (deltas add edges, not nodes); the label must be interned
/// through the graph's dictionary.
struct EdgeInsert {
  NodeId src;
  LabelId label;
  NodeId dst;

  friend bool operator==(const EdgeInsert&, const EdgeInsert&) = default;
};

/// One edge deletion src --label--> dst. Unlike inserts, deletes are
/// tolerant by design: a delete naming an edge (or endpoint, or label) the
/// graph does not have is counted in `GraphPatch::missing`, not rejected —
/// CDC-style producers routinely replay cleanups against state that
/// already converged.
struct EdgeDelete {
  NodeId src;
  LabelId label;
  NodeId dst;

  friend bool operator==(const EdgeDelete&, const EdgeDelete&) = default;
};

/// One label-dictionary definition carried alongside a serialized delta:
/// the interned id and the name it stands for. Deltas reference labels by
/// id, which is only meaningful against the producer's dictionary — a
/// journal frame replayed against a freshly loaded snapshot may reference
/// labels interned live *after* that snapshot was written. Frames carry
/// their own definitions so replay can re-intern exactly the ids it needs
/// (see `ApplyLabelDefs`).
struct LabelDef {
  LabelId id;
  std::string name;

  friend bool operator==(const LabelDef&, const LabelDef&) = default;
};

/// A versioned batch of edge mutations — the unit mutations travel in:
/// `ServeSession::ApplyDelta` takes one, and the sharded serving router
/// ships the serialized form to its shard servers instead of full graph
/// snapshots. `sequence` orders batches from a single producer (the router
/// stamps it; standalone callers may leave it 0).
///
/// Within one batch, deletes apply before inserts: an edge that appears in
/// both lists ends up PRESENT in the patched graph (delete-then-reinsert),
/// and is counted on both sides of the `GraphPatch` tally.
struct GraphDelta {
  /// Insert-only wire format (PR 5/6): no `deletes` section. Still written
  /// for pure-insert batches, so pre-deletion consumers keep interoperating.
  static constexpr uint32_t kFormatVersion = 1;
  /// Mutation-stream wire format: `deletes` follow the inserts.
  static constexpr uint32_t kFormatVersionV2 = 2;
  /// Durable wire format: a `label_defs` section follows the deletes, so a
  /// journaled frame is self-describing — replay against a snapshot older
  /// than the frame re-interns the label names the frame minted.
  static constexpr uint32_t kFormatVersionV3 = 3;

  uint64_t sequence = 0;
  std::vector<EdgeInsert> inserts;
  std::vector<EdgeDelete> deletes;
  /// Definitions for every distinct label the edges reference (sorted by
  /// id). Empty for in-process deltas; the servers fill it at journal and
  /// ship time via `CollectLabelDefs`.
  std::vector<LabelDef> label_defs;

  /// Framed little-endian encoding (see common/binary_io): magic
  /// "GPARDLTA", u32 version, u64 payload size, u64 FNV-1a payload
  /// checksum, then the payload {u64 sequence, u32 insert_count,
  /// insert_count x (u32 src, u32 label, u32 dst)}, — version >= 2 —
  /// {u32 delete_count, delete_count x (u32 src, u32 label, u32 dst)},
  /// and — version 3 — {u32 def_count, def_count x (u32 id, u32 name_len,
  /// name bytes)}. The writer picks the lowest version that can carry the
  /// batch: no deletes and no defs -> 1 (byte-identical to the PR 6
  /// encoding), deletes but no defs -> 2, any defs -> 3.
  std::string Serialize() const;
  /// Inverse of `Serialize`; accepts all three wire versions. Corruption
  /// on bad magic/version/checksum or a truncated or oversized buffer.
  static Result<GraphDelta> Deserialize(std::string_view bytes);

  /// Serialized frame header length (magic + version + payload size +
  /// checksum) — frames are self-delimiting, which is what lets the delta
  /// journal detect a torn tail without a separate length index.
  static constexpr size_t kFrameHeaderBytes = 8 + 4 + 8 + 8;
  /// Total on-disk frame length (header + payload) declared by the header
  /// at the start of `bytes`. Validates magic and version only — the
  /// payload need not be present (or intact) yet; `bytes` may extend past
  /// the frame. Corruption when even the header is truncated or foreign.
  static Result<size_t> FrameSize(std::string_view bytes);

  friend bool operator==(const GraphDelta&, const GraphDelta&) = default;
};

/// Result of patching a graph with a mutation batch.
struct GraphPatch {
  Graph graph;                ///< the patched graph (shares the interner)
  size_t edges_inserted = 0;  ///< new edges actually added
  size_t duplicates = 0;      ///< inserts already present (or repeated)
  size_t edges_deleted = 0;   ///< edges actually removed
  size_t missing = 0;  ///< deletes of absent/out-of-range edges (or repeated)
  /// The inserts that actually changed the graph (sorted, deduplicated,
  /// pre-existing edges removed) — the set delta invalidation starts from.
  std::vector<EdgeInsert> applied;
  /// The deletes that actually removed an edge (sorted, deduplicated) —
  /// the other half of the invalidation frontier.
  std::vector<EdgeDelete> applied_deletes;
};

/// Fills `delta->label_defs` with a definition for every distinct label id
/// its edges reference (sorted by id), named from `labels`. The servers
/// call this right before serializing a frame for the journal or the shard
/// wire, which is what makes those frames replayable against an older
/// snapshot. Ids the dictionary does not know are skipped — `PatchGraph`
/// rejects such a delta anyway.
void CollectLabelDefs(const Interner& labels, GraphDelta* delta);

/// Replays `delta.label_defs` into `labels`: a def naming the next unseen
/// id is interned, a def for an existing id must match its name, and
/// anything out of order (an id past the end, a name already interned
/// under a different id) is `Corruption` — journal frames replay in append
/// order, so a well-formed journal only ever extends the dictionary the
/// way the live server did. Safe to call with defs the dictionary already
/// has (the live shard-wire path): those verify and no-op.
Status ApplyLabelDefs(const GraphDelta& delta, Interner* labels);

/// Removes the named edges in one merge pass over the CSR, bit-identical
/// to a from-scratch rebuild from the shrunken edge list. Deletes of absent
/// edges (including out-of-range endpoints or uninterned labels) are
/// counted in `GraphPatch::missing`, never fatal.
Result<GraphPatch> PatchGraphWithDeletes(const Graph& g,
                                         std::span<const EdgeDelete> deletes);

/// The unified mutation entry point — applies `delta.deletes` then
/// `delta.inserts` in ONE merge pass over the CSR, bit-identical to a
/// from-scratch rebuild from the final edge list
/// (old edges \ deletes) ∪ inserts. Inserts are strict: an out-of-range
/// endpoint or uninterned label is InvalidArgument.
///
/// Cost is O(|V| + |E| + k log k) for k mutations: they are sorted and
/// merged into the out-CSR in one pass — no global edge re-sort — and the
/// in-CSR and label index are re-derived by the shared assembly routine.
/// The paper's serving scenario applies small deltas to large graphs, where
/// the merge is dominated by the memcpy of the untouched adjacency.
Result<GraphPatch> PatchGraph(const Graph& g, const GraphDelta& delta);

/// Distance-bounded invalidation support: for every node within undirected
/// distance `radius` of any source, its distance to the nearest source.
/// One multi-source BFS; pairs are returned in BFS order (sources first).
/// Shard servers use it to re-derive the d-balls of the owned centers a
/// delta reaches (locality, Section 5.1: membership of v depends only on
/// G_d(v)).
std::vector<std::pair<NodeId, uint32_t>> NodesWithinRadiusOfAny(
    const Graph& g, std::span<const NodeId> sources, uint32_t radius);

/// The delta-affected region at radius `radius`: every node whose
/// r-neighborhood G_r(v) (r <= radius) can differ between `old_g` and
/// `new_g` after applying exactly `applied` + `applied_deletes`, paired
/// with its minimum distance to a touched endpoint. By the locality
/// property (Section 5.1) these are the only nodes whose membership in any
/// pattern of eval radius <= `radius` can have changed.
///
/// Inserted edges are reached on the patched graph, deleted ones on the
/// pre-delete graph, unioned at minimum distance: a center whose only path
/// to a deleted edge ran THROUGH that edge is beyond `radius` on the
/// patched graph but its d-ball still lost the edge (non-monotone reach).
/// Pairs come back sorted by node id. Same as
/// `DeltaFrontier::Compute(...).region()`.
std::vector<std::pair<NodeId, uint32_t>> DeltaAffectedRegion(
    const Graph& old_g, const Graph& new_g,
    std::span<const EdgeInsert> applied,
    std::span<const EdgeDelete> applied_deletes, uint32_t radius);

/// Sets of touched edges as bitmasks: bit b of `inserts` stands for the
/// applied inserts whose index i has i mod 64 == b, likewise for deletes.
struct EdgeBits {
  uint64_t inserts = 0;
  uint64_t deletes = 0;

  EdgeBits& operator|=(const EdgeBits& o) {
    inserts |= o.inserts;
    deletes |= o.deletes;
    return *this;
  }
};

/// The label-, direction- and hop-aware re-probe frontier of one applied
/// batch.
///
/// It refines the affected region (locality, Section 5.1) with three facts
/// about a pattern P anchored at x, for a center c:
///  - c can GAIN a match only through an inserted edge whose (src label,
///    edge label, dst label) triple is the triple of some edge e of P — a
///    new match avoiding every inserted edge was already a match before;
///  - c can LOSE its matches only through such a deleted edge — an old
///    match avoiding every deleted edge survives;
///  - a match f with f(x) = c maps e onto a graph edge with an endpoint
///    within h(e) hops of c, where h(e) is the undirected distance from x
///    to e's nearer endpoint: on the patched graph for a gained match, on
///    the pre-delete graph for a lost one.
/// One bit-parallel multi-source BFS per side keeps, for each node and
/// each radius <= `radius()`, the bits of the touched edges within reach:
/// insert bits spread on the patched graph, delete bits on the pre-delete
/// graph. Pattern-side bits come from `BitsForTriple`; pattern_ops's
/// `PatternFrontier` pairs them with h(e) and decides a membership.
///
/// Edge i of a side owns bit i mod 64. Past 64 edges per side, edges share
/// bits, which only adds re-probes: a membership is carried when no bit is
/// shared, and sharing never hides an edge that is both near and relevant.
class DeltaFrontier {
 public:
  /// The frontier of a batch that touched nothing: every lookup reads 0.
  DeltaFrontier() = default;

  /// `old_g` and `new_g` are the graphs before and after applying exactly
  /// `applied` and `applied_deletes` (a `GraphPatch`'s normalized lists).
  static DeltaFrontier Compute(const Graph& old_g, const Graph& new_g,
                               std::span<const EdgeInsert> applied,
                               std::span<const EdgeDelete> applied_deletes,
                               uint32_t radius);

  uint32_t radius() const { return radius_; }
  const std::vector<EdgeInsert>& inserts() const { return inserts_; }
  const std::vector<EdgeDelete>& deletes() const { return deletes_; }
  bool empty() const { return inserts_.empty() && deletes_.empty(); }

  /// Bits of the touched edges src --edge--> dst whose endpoint labels and
  /// edge label equal the triple.
  EdgeBits BitsForTriple(LabelId src_label, LabelId edge_label,
                         LabelId dst_label) const;

  /// Bits of the inserted (deleted) edges with an endpoint within `r`
  /// undirected hops of `v` on the patched (pre-delete) graph. Past
  /// `radius()` nothing is known, so a non-empty side reads all ones.
  uint64_t InsertsWithin(NodeId v, uint32_t r) const {
    return Lookup(ins_bits_, v, r);
  }
  uint64_t DeletesWithin(NodeId v, uint32_t r) const {
    return Lookup(del_bits_, v, r);
  }

  /// Every node within `radius()` of a touched edge on its side's graph,
  /// with its minimum distance, sorted by node id.
  const std::vector<std::pair<NodeId, uint32_t>>& region() const {
    return region_;
  }

 private:
  struct Triple {
    LabelId src, edge, dst;
  };

  uint64_t Lookup(const std::vector<uint64_t>& bits, NodeId v,
                  uint32_t r) const {
    if (bits.empty()) return 0;
    if (r > radius_) return ~uint64_t{0};
    return bits[static_cast<size_t>(r) * num_nodes_ + v];
  }

  uint32_t radius_ = 0;
  size_t num_nodes_ = 0;
  std::vector<EdgeInsert> inserts_;
  std::vector<EdgeDelete> deletes_;
  std::vector<Triple> insert_triples_, delete_triples_;
  /// Level-major: entry r * num_nodes_ + v holds the bits within r hops
  /// of v. Empty when the side has no edges.
  std::vector<uint64_t> ins_bits_, del_bits_;
  std::vector<std::pair<NodeId, uint32_t>> region_;
};

}  // namespace gpar

#endif  // GPAR_GRAPH_GRAPH_DELTA_H_
