#ifndef GPAR_PATTERN_PATTERN_OPS_H_
#define GPAR_PATTERN_PATTERN_OPS_H_

#include <cstdint>
#include <vector>

#include "graph/graph_delta.h"
#include "pattern/pattern.h"

namespace gpar {

inline constexpr uint32_t kUnreachable = static_cast<uint32_t>(-1);

/// Undirected BFS distances from `from`; kUnreachable for disconnected
/// nodes. Multiplicity copies are treated as the single annotated node.
std::vector<uint32_t> DistancesFrom(const Pattern& p, PNodeId from);

/// r(Q, x): the longest undirected distance from `from` to any node
/// (Section 2.1). Returns kUnreachable if the pattern is disconnected.
uint32_t Radius(const Pattern& p, PNodeId from);

/// True iff the pattern is connected (undirected reachability).
bool IsConnected(const Pattern& p);

/// The touched edges of one batch that can flip a center's membership in
/// `p` (anchored at p's x), by hop. For a pattern edge e, h(e) is the
/// undirected distance from x to e's nearer endpoint. A match f with
/// f(x) = c maps e onto a graph edge with an endpoint within h(e) hops of
/// c, on the graph the match lives in — the patched graph for a match that
/// uses an inserted edge, the pre-delete graph for one that loses a deleted
/// edge. So a touched edge can flip c only when its (src label, edge
/// label, dst label) triple is the triple of some pattern edge e and it
/// lies within h(e) hops of c. An edge off x's component has no such
/// bound: it sits past the frontier's radius, where lookups read all ones.
///
/// The maintainer's re-probe loop and the serving cache walk both decide
/// with `Reach`.
class PatternFrontier {
 public:
  PatternFrontier(const DeltaFrontier& frontier, const Pattern& p);

  /// Bits of the touched edges that can flip c's membership: relevant
  /// deletes for a member, relevant inserts for a non-member. Zero proves
  /// the membership unchanged by the batch.
  uint64_t Reach(NodeId c, bool member) const {
    uint64_t reach = 0;
    for (const Hop& h : hops_) {
      reach |= member ? frontier_->DeletesWithin(c, h.hop) & h.bits.deletes
                      : frontier_->InsertsWithin(c, h.hop) & h.bits.inserts;
    }
    return reach;
  }

 private:
  struct Hop {
    uint32_t hop;
    EdgeBits bits;
  };

  const DeltaFrontier* frontier_;
  /// One entry per distinct hop with relevant touched edges.
  std::vector<Hop> hops_;
};

/// FNV-1a mixing primitives shared by the pattern hashes (StructuralHash
/// here, IsomorphismBucketHash in automorphism.h) and by callers that fold
/// several pattern hashes into one key.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;
inline uint64_t FnvMix(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

/// Structural FNV-1a hash over nodes, edges, and designated nodes. Equal
/// patterns (operator==) hash equal; collisions must be resolved by exact
/// equality in the consuming cache bucket. Shared by the matchers' pattern
/// caches (guided sketches, search plans) and by DMine's worker candidate
/// proposals (the per-extension checksum in CandidateProposal). Not
/// isomorphism-invariant — node ids participate; use IsomorphismBucketHash
/// for iso-stable bucketing.
uint64_t StructuralHash(const Pattern& p);

/// True iff there is an injective, label- and edge-preserving embedding of
/// `sub` into `super`. With `anchor_designated`, sub's x must map to
/// super's x (and sub's y to super's y when both are set). This decides
/// pattern subsumption Q' ⊑ Q up to renaming of node ids.
bool IsSubsumedBy(const Pattern& sub, const Pattern& super,
                  bool anchor_designated);

/// An extension step used by pattern growth: attach a new edge to `at`
/// (forward: new node labeled `other_label`; backward: existing node
/// `existing`).
struct Extension {
  PNodeId at;             ///< existing pattern node the edge touches
  bool out;               ///< edge direction seen from `at`
  LabelId edge_label;
  LabelId other_label;    ///< label of the new node (forward extensions)
  PNodeId existing = kNoPatternNode;  ///< set for backward extensions

  friend bool operator==(const Extension&, const Extension&) = default;
};

/// Returns a copy of `p` with the extension applied.
Pattern ApplyExtension(const Pattern& p, const Extension& ext);

}  // namespace gpar

#endif  // GPAR_PATTERN_PATTERN_OPS_H_
