// Soundness oracle for the hop-aware delta frontier: over random small
// graphs, patterns and insert+delete batches, every (pattern, center)
// membership that a batch flips — decided by brute-force matching before
// and after — must have non-zero `PatternFrontier::Reach`. A zero reach is
// what lets the maintainer carry a membership and the serving cache keep a
// bit, so a miss here is a stale answer there.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "match/matcher.h"
#include "pattern/pattern_ops.h"

namespace gpar {
namespace {

constexpr NodeId kNodes = 14;

struct Labels {
  LabelId a, b, e, f;
};

/// Grows a random pattern of up to three edges from x; with `apart`, one
/// more edge joins two fresh nodes off x's component.
Pattern RandomPattern(std::mt19937& rng, const Labels& l, bool apart) {
  auto node_label = [&] { return rng() % 2 ? l.a : l.b; };
  auto edge_label = [&] { return rng() % 2 ? l.e : l.f; };
  Pattern p;
  p.set_x(p.AddNode(node_label()));
  const uint32_t edges = 1 + rng() % 3;
  for (uint32_t i = 0; i < edges; ++i) {
    const PNodeId at = static_cast<PNodeId>(rng() % p.num_nodes());
    PNodeId other;
    if (p.num_nodes() > 2 && rng() % 4 == 0) {
      other = static_cast<PNodeId>(rng() % p.num_nodes());
      if (other == at) continue;
    } else {
      other = p.AddNode(node_label());
    }
    if (rng() % 2) {
      p.AddEdge(at, edge_label(), other);
    } else {
      p.AddEdge(other, edge_label(), at);
    }
  }
  if (apart) {
    const PNodeId u = p.AddNode(node_label());
    p.AddEdge(u, edge_label(), p.AddNode(node_label()));
  }
  return p;
}

TEST(PatternFrontierTest, EveryFlippedMembershipHasReach) {
  std::mt19937 rng(2024);
  size_t flips = 0, carried = 0;
  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto names = std::make_shared<Interner>();
    Labels l;
    l.a = names->Intern("a");
    l.b = names->Intern("b");
    l.e = names->Intern("e");
    l.f = names->Intern("f");
    GraphBuilder b(names);
    for (NodeId v = 0; v < kNodes; ++v) b.AddNode(rng() % 2 ? l.a : l.b);
    std::set<std::tuple<NodeId, LabelId, NodeId>> edges;
    while (edges.size() < 22) {
      const NodeId s = rng() % kNodes, t = rng() % kNodes;
      if (s != t) edges.insert({s, rng() % 2 ? l.e : l.f, t});
    }
    for (const auto& [s, lab, t] : edges) {
      ASSERT_TRUE(b.AddEdge(s, lab, t).ok());
    }
    const Graph g = std::move(b).Build();

    GraphDelta delta;
    while (delta.inserts.size() < 3) {
      const NodeId s = rng() % kNodes, t = rng() % kNodes;
      const LabelId lab = rng() % 2 ? l.e : l.f;
      if (s != t && edges.count({s, lab, t}) == 0) {
        delta.inserts.push_back({s, lab, t});
      }
    }
    std::vector<std::tuple<NodeId, LabelId, NodeId>> present(edges.begin(),
                                                             edges.end());
    for (int i = 0; i < 3; ++i) {
      const auto& [s, lab, t] = present[rng() % present.size()];
      delta.deletes.push_back({s, lab, t});
    }
    auto patch = PatchGraph(g, delta);
    ASSERT_TRUE(patch.ok()) << patch.status();
    const DeltaFrontier fr = DeltaFrontier::Compute(
        g, patch->graph, patch->applied, patch->applied_deletes, 3);

    VF2Matcher before(g), after(patch->graph);
    for (int pi = 0; pi < 8; ++pi) {
      const Pattern p = RandomPattern(rng, l, /*apart=*/pi % 4 == 3);
      const PatternFrontier reach(fr, p);
      for (NodeId c : g.nodes_with_label(p.node(p.x()).label)) {
        const bool was = before.ExistsAt(p, c);
        const bool now = after.ExistsAt(p, c);
        const uint64_t r = reach.Reach(c, was);
        if (was != now) {
          ++flips;
          EXPECT_NE(r, 0u) << "center " << c << " flipped unseen in "
                           << p.ToString(g.labels());
        } else if (r == 0) {
          ++carried;
        }
      }
    }
  }
  // Both outcomes occur: the oracle is not vacuous, and the frontier
  // carries memberships.
  EXPECT_GT(flips, 50u);
  EXPECT_GT(carried, 500u);
}

}  // namespace
}  // namespace gpar
