#include "pattern/pattern_ops.h"

#include <algorithm>
#include <deque>

namespace gpar {

std::vector<uint32_t> DistancesFrom(const Pattern& p, PNodeId from) {
  std::vector<uint32_t> dist(p.num_nodes(), kUnreachable);
  std::deque<PNodeId> frontier{from};
  dist[from] = 0;
  while (!frontier.empty()) {
    PNodeId u = frontier.front();
    frontier.pop_front();
    for (const PatternAdj& a : p.adj(u)) {
      if (dist[a.other] == kUnreachable) {
        dist[a.other] = dist[u] + 1;
        frontier.push_back(a.other);
      }
    }
  }
  return dist;
}

uint32_t Radius(const Pattern& p, PNodeId from) {
  std::vector<uint32_t> dist = DistancesFrom(p, from);
  uint32_t r = 0;
  for (uint32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    r = std::max(r, d);
  }
  return r;
}

bool IsConnected(const Pattern& p) {
  if (p.num_nodes() == 0) return true;
  return Radius(p, 0) != kUnreachable;
}

PatternFrontier::PatternFrontier(const DeltaFrontier& frontier,
                                 const Pattern& p)
    : frontier_(&frontier) {
  if (frontier.empty()) return;
  const std::vector<uint32_t> dist = DistancesFrom(p, p.x());
  for (const PatternEdge& e : p.edges()) {
    const EdgeBits bits = frontier.BitsForTriple(
        p.node(e.src).label, e.label, p.node(e.dst).label);
    if (bits.inserts == 0 && bits.deletes == 0) continue;
    // kUnreachable off x's component: past any radius, so all ones.
    const uint32_t hop = std::min(dist[e.src], dist[e.dst]);
    auto it = std::find_if(hops_.begin(), hops_.end(),
                           [hop](const Hop& h) { return h.hop == hop; });
    if (it == hops_.end()) {
      hops_.push_back({hop, bits});
    } else {
      it->bits |= bits;
    }
  }
}

uint64_t StructuralHash(const Pattern& p) {
  uint64_t h = kFnvOffsetBasis;
  for (PNodeId u = 0; u < p.num_nodes(); ++u) {
    h = FnvMix(h, p.node(u).label);
    h = FnvMix(h, p.node(u).multiplicity);
  }
  for (const PatternEdge& e : p.edges()) {
    h = FnvMix(h, e.src);
    h = FnvMix(h, e.dst);
    h = FnvMix(h, e.label);
  }
  h = FnvMix(h, p.x());
  h = FnvMix(h, p.y());
  return h;
}

namespace {

/// Backtracking embedding of `sub` into `super` (both tiny).
bool EmbedFrom(const Pattern& sub, const Pattern& super, size_t next,
               std::vector<PNodeId>& map, std::vector<bool>& used,
               const std::vector<PNodeId>& order) {
  if (next == order.size()) return true;
  PNodeId u = order[next];
  for (PNodeId v = 0; v < super.num_nodes(); ++v) {
    if (used[v]) continue;
    if (map[u] != kNoPatternNode && map[u] != v) continue;
    if (sub.node(u).label != super.node(v).label) continue;
    if (sub.node(u).multiplicity > super.node(v).multiplicity) continue;
    // All sub-edges between u and already-mapped nodes must exist in super.
    bool ok = true;
    for (const PatternAdj& a : sub.adj(u)) {
      if (map[a.other] == kNoPatternNode && a.other != u) continue;
      PNodeId w = (a.other == u) ? v : map[a.other];
      PNodeId s = a.out ? v : w;
      PNodeId t = a.out ? w : v;
      bool found = false;
      for (const PatternEdge& e : super.edges()) {
        if (e.src == s && e.dst == t && e.label == a.elabel) {
          found = true;
          break;
        }
      }
      if (!found) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    PNodeId saved = map[u];
    map[u] = v;
    used[v] = true;
    if (EmbedFrom(sub, super, next + 1, map, used, order)) return true;
    used[v] = false;
    map[u] = saved;
  }
  return false;
}

}  // namespace

bool IsSubsumedBy(const Pattern& sub, const Pattern& super,
                  bool anchor_designated) {
  if (sub.num_nodes() > super.num_nodes()) return false;
  if (sub.num_edges() > super.num_edges()) return false;
  std::vector<PNodeId> map(sub.num_nodes(), kNoPatternNode);
  std::vector<bool> used(super.num_nodes(), false);
  std::vector<PNodeId> order;
  order.reserve(sub.num_nodes());
  if (anchor_designated) {
    if (sub.node(sub.x()).label != super.node(super.x()).label) return false;
    map[sub.x()] = super.x();
    if (sub.has_y()) {
      if (!super.has_y()) return false;
      if (sub.x() != sub.y()) map[sub.y()] = super.y();
    }
  }
  // Order: pre-anchored nodes first, then the rest.
  for (PNodeId u = 0; u < sub.num_nodes(); ++u) {
    if (map[u] != kNoPatternNode) order.push_back(u);
  }
  for (PNodeId u = 0; u < sub.num_nodes(); ++u) {
    if (map[u] == kNoPatternNode) order.push_back(u);
  }
  // Mark anchored targets used.
  for (PNodeId u = 0; u < sub.num_nodes(); ++u) {
    if (map[u] != kNoPatternNode) used[map[u]] = true;
  }
  // Anchored nodes are validated by EmbedFrom as they come first in order
  // (the candidate loop only accepts v == map[u] for them).
  for (PNodeId u = 0; u < sub.num_nodes(); ++u) {
    if (map[u] != kNoPatternNode) used[map[u]] = false;
  }
  return EmbedFrom(sub, super, 0, map, used, order);
}

Pattern ApplyExtension(const Pattern& p, const Extension& ext) {
  Pattern out = p;
  PNodeId other = ext.existing;
  if (other == kNoPatternNode) {
    other = out.AddNode(ext.other_label, 1);
  }
  if (ext.out) {
    out.AddEdge(ext.at, ext.edge_label, other);
  } else {
    out.AddEdge(other, ext.edge_label, ext.at);
  }
  return out;
}

}  // namespace gpar
