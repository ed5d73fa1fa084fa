// Property-based suites: each TEST_P sweeps randomized instances (seeded,
// deterministic) and checks an invariant the paper's formal development
// relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/generator.h"
#include "graph/graph_io.h"
#include "graph/neighborhood.h"
#include "graph/partition.h"
#include "graph/stats.h"
#include "match/guided.h"
#include "match/matcher.h"
#include "match/simulation.h"
#include "mine/dmine.h"
#include "pattern/automorphism.h"
#include "pattern/bisimulation.h"
#include "pattern/pattern_generator.h"
#include "pattern/pattern_ops.h"
#include "test_util.h"
#include "rule/diversity.h"
#include "rule/metrics.h"

namespace gpar {
namespace {

/// Shared randomized scenario: a synthetic graph plus a workload of GPARs
/// lifted from it.
struct Scenario {
  Graph graph;
  Predicate q;
  std::vector<Gpar> rules;
};

Scenario MakeScenario(uint64_t seed) {
  Scenario s;
  s.graph = MakeSynthetic(600, 1800, 25, seed);
  auto freq = FrequentEdgePatterns(s.graph, 1);
  s.q = {freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  GparGenOptions opt;
  opt.num_nodes = 4;
  opt.num_edges = 4;
  opt.max_radius = 2;
  opt.seed = seed * 31 + 7;
  s.rules = GenerateGparWorkload(s.graph, s.q, 5, opt);
  return s;
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST_P(SeededProperty, SupportAntiMonotonicUnderExtension) {
  // Section 3: supp(Q', G) >= supp(Q, G) whenever Q' ⊑ Q. Extensions add
  // one edge, so every extension's support is bounded by its parent's.
  Scenario s = MakeScenario(GetParam());
  VF2Matcher m(s.graph);
  auto seeds = FrequentEdgePatterns(s.graph, 6);
  for (const Gpar& r : s.rules) {
    uint64_t parent_supp = 0;
    for (NodeId v : s.graph.nodes_with_label(s.q.x_label)) {
      if (m.ExistsAt(r.pr(), v)) ++parent_supp;
    }
    auto extensions =
        GenerateExtensions(r.antecedent(), s.q.edge_label, 2, 6, seeds);
    // Probe a few extensions (they are numerous).
    size_t probed = 0;
    for (const Gpar& ext : extensions) {
      if (++probed > 4) break;
      uint64_t ext_supp = 0;
      for (NodeId v : s.graph.nodes_with_label(s.q.x_label)) {
        if (m.ExistsAt(ext.pr(), v)) ++ext_supp;
      }
      EXPECT_LE(ext_supp, parent_supp)
          << "anti-monotonicity violated at seed " << GetParam();
    }
  }
}

TEST_P(SeededProperty, ParentPruneEquivalence) {
  // Parent-match pruning (anti-monotone worker-loop restriction) is an
  // optimization, not an approximation: pruned and unpruned DMine must
  // produce identical accepted pools, top-k rules, supports, confidences,
  // and objective on every instance.
  Scenario s = MakeScenario(GetParam());
  DmineOptions opt;
  opt.num_workers = 3;
  opt.k = 4;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;

  auto pruned = Dmine(s.graph, s.q, opt);
  opt.enable_parent_prune = false;
  auto unpruned = Dmine(s.graph, s.q, opt);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  ASSERT_TRUE(unpruned.ok()) << unpruned.status();

  EXPECT_EQ(pruned->stats.accepted, unpruned->stats.accepted)
      << "pool diverged at seed " << GetParam();
  EXPECT_EQ(pruned->stats.trivial_discarded,
            unpruned->stats.trivial_discarded);
  EXPECT_NEAR(pruned->objective, unpruned->objective, 1e-12);
  ASSERT_EQ(pruned->topk.size(), unpruned->topk.size());
  for (size_t i = 0; i < pruned->topk.size(); ++i) {
    const auto& a = pruned->topk[i];
    const auto& b = unpruned->topk[i];
    EXPECT_EQ(IsomorphismBucketKey(a->rule.pr()),
              IsomorphismBucketKey(b->rule.pr()))
        << "top-k rule " << i << " diverged at seed " << GetParam();
    EXPECT_EQ(a->supp, b->supp);
    EXPECT_EQ(a->supp_qqbar, b->supp_qqbar);
    EXPECT_DOUBLE_EQ(a->conf, b->conf);
    EXPECT_EQ(a->matches, b->matches);
  }
  // The pruned run never probes more than the unpruned one.
  EXPECT_LE(pruned->stats.exists_calls, unpruned->stats.exists_calls);
}

TEST_P(SeededProperty, IncrementalDivEquivalence) {
  // Incremental diversification (incDiv, Section 4.2) maintains the
  // diversified top-k round-over-round as a 2-approximation, so its
  // SELECTION may legitimately differ from recomputing greedily from
  // scratch every round (the DMineno ablation's diversification half).
  // What the ablation flag must never change is the mining itself: with
  // reductions disabled on both sides (they are only wired through the
  // incremental path), the candidate pool, supports, and probe counts are
  // bit-identical, both top-ks draw only sigma-qualified nontrivial rules,
  // the objectives stay within the paper's approximation factor of each
  // other, and the incremental path is deterministic run-over-run.
  Scenario s = MakeScenario(GetParam());
  DmineOptions opt;
  opt.num_workers = 3;
  opt.k = 4;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;
  opt.enable_reduction_rules = false;

  opt.enable_incremental_div = true;
  auto incremental = Dmine(s.graph, s.q, opt);
  opt.enable_incremental_div = false;
  auto scratch = Dmine(s.graph, s.q, opt);
  ASSERT_TRUE(incremental.ok()) << incremental.status();
  ASSERT_TRUE(scratch.ok()) << scratch.status();

  // Diversification never feeds back into candidate generation, so the
  // mined pool is identical either way.
  EXPECT_EQ(incremental->stats.accepted, scratch->stats.accepted)
      << "pool diverged at seed " << GetParam();
  EXPECT_EQ(incremental->stats.trivial_discarded,
            scratch->stats.trivial_discarded);
  EXPECT_EQ(incremental->stats.candidates_verified,
            scratch->stats.candidates_verified);
  EXPECT_EQ(incremental->stats.exists_calls, scratch->stats.exists_calls);

  // Same k drawn from the same pool, every entry sigma-qualified and
  // nontrivial, and the two objectives within the 2-approximation band.
  ASSERT_EQ(incremental->topk.size(), scratch->topk.size());
  for (const auto& r : incremental->topk) {
    EXPECT_GE(r->supp, opt.sigma);
    EXPECT_GT(r->supp_qqbar, 0u);
  }
  EXPECT_GT(incremental->objective, 0.0);
  EXPECT_LE(scratch->objective, 2 * incremental->objective + 1e-9)
      << "incDiv lost more than the paper's approximation factor at seed "
      << GetParam();
  EXPECT_LE(incremental->objective, 2 * scratch->objective + 1e-9);

  // The maintained top-k is deterministic across repeat runs.
  opt.enable_incremental_div = true;
  auto repeat = Dmine(s.graph, s.q, opt);
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_NEAR(incremental->objective, repeat->objective, 1e-12);
  ASSERT_EQ(incremental->topk.size(), repeat->topk.size());
  for (size_t i = 0; i < incremental->topk.size(); ++i) {
    EXPECT_EQ(IsomorphismBucketKey(incremental->topk[i]->rule.pr()),
              IsomorphismBucketKey(repeat->topk[i]->rule.pr()))
        << "incremental top-k not deterministic at seed " << GetParam();
    EXPECT_EQ(incremental->topk[i]->matches, repeat->topk[i]->matches);
  }
}

TEST_P(SeededProperty, MatcherScratchReuseMatchesFreshMatcher) {
  // The matcher reuses scratch state (injectivity bitmap, candidate
  // buffers, plan cache) across searches; a long-lived matcher must answer
  // exactly like a throwaway matcher constructed per probe.
  Scenario s = MakeScenario(GetParam());
  VF2Matcher reused(s.graph);
  GuidedMatcher reused_guided(s.graph, 2);
  auto centers = s.graph.nodes_with_label(s.q.x_label);
  for (const Gpar& r : s.rules) {
    size_t probes = 0;
    for (NodeId v : centers) {
      if (++probes > 25) break;
      VF2Matcher fresh(s.graph);
      EXPECT_EQ(reused.ExistsAt(r.pr(), v), fresh.ExistsAt(r.pr(), v))
          << "P_R divergence at seed " << GetParam() << " node " << v;
      EXPECT_EQ(reused.ExistsAt(r.antecedent(), v),
                fresh.ExistsAt(r.antecedent(), v))
          << "antecedent divergence at seed " << GetParam() << " node " << v;
      EXPECT_EQ(reused_guided.ExistsAt(r.pr(), v), fresh.ExistsAt(r.pr(), v));
    }
  }
  // The reused matcher planned each distinct (pattern, anchor) once.
  EXPECT_GT(reused.plans_cached(), 0u);
  EXPECT_LE(reused.plans_cached(), 2 * s.rules.size());
}

TEST_P(SeededProperty, GuidedMatcherAgreesWithVF2) {
  Scenario s = MakeScenario(GetParam());
  VF2Matcher vf2(s.graph);
  GuidedMatcher guided(s.graph, 2);
  for (const Gpar& r : s.rules) {
    auto a = vf2.Images(r.pr(), r.pr().x());
    auto b = guided.Images(r.pr(), r.pr().x());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "guided/vf2 divergence at seed " << GetParam();
  }
}

TEST_P(SeededProperty, MatchingIsLocalWithinEvalRadius) {
  // Data locality (Section 4.2): v ∈ P_R(x, G) iff v ∈ P_R(x, G_d(v)) for
  // d = eval_radius — the foundation of both parallel algorithms.
  Scenario s = MakeScenario(GetParam());
  VF2Matcher global(s.graph);
  auto centers = s.graph.nodes_with_label(s.q.x_label);
  size_t probes = 0;
  for (const Gpar& r : s.rules) {
    for (NodeId v : centers) {
      if (++probes > 60) break;
      DNeighborhood dn = ExtractDNeighborhood(s.graph, v, r.eval_radius());
      VF2Matcher local(dn.sub.graph);
      EXPECT_EQ(global.ExistsAt(r.pr(), v),
                local.ExistsAt(r.pr(), dn.center_local))
          << "locality violated at seed " << GetParam() << " node " << v;
    }
  }
}

TEST_P(SeededProperty, SimulationContainsIsomorphismImages) {
  Scenario s = MakeScenario(GetParam());
  VF2Matcher m(s.graph);
  for (const Gpar& r : s.rules) {
    auto iso = m.Images(r.pr(), r.pr().x());
    auto sim = SimulationImages(r.pr(), s.graph, r.pr().x());
    for (NodeId v : iso) {
      EXPECT_TRUE(std::binary_search(sim.begin(), sim.end(), v));
    }
  }
}

TEST_P(SeededProperty, IsomorphicPatternsAreBisimilarAndShareBuckets) {
  // Lemma 4 direction, on randomized patterns: build an isomorphic copy by
  // reversing node declaration order; both tests must accept it.
  Scenario s = MakeScenario(GetParam());
  for (const Gpar& r : s.rules) {
    const Pattern& p = r.pr();
    Pattern copy = test::ReversedIsomorphicCopy(p);

    EXPECT_TRUE(AreIsomorphic(p, copy, /*preserve_designated=*/true));
    EXPECT_TRUE(AreBisimilarDesignated(p, copy));
    EXPECT_EQ(IsomorphismBucketKey(p), IsomorphismBucketKey(copy));
    EXPECT_EQ(IsomorphismBucketHash(p), IsomorphismBucketHash(copy));
  }
}

TEST_P(SeededProperty, PartitionInvariants) {
  Scenario s = MakeScenario(GetParam());
  std::vector<NodeId> centers;
  {
    auto span = s.graph.nodes_with_label(s.q.x_label);
    centers.assign(span.begin(), span.end());
  }
  for (uint32_t n : {2u, 5u}) {
    PartitionOptions opt;
    opt.num_fragments = n;
    opt.d = 2;
    auto parts = PartitionGraph(s.graph, centers, opt);
    ASSERT_TRUE(parts.ok());
    size_t owned = 0;
    for (const Fragment& f : parts->fragments) owned += f.centers.size();
    EXPECT_EQ(owned, centers.size());
    // Locality spot-check on the view membership.
    for (const Fragment& f : parts->fragments) {
      for (NodeId global : f.centers) {
        for (NodeId w : NodesWithinRadius(s.graph, global, opt.d)) {
          EXPECT_TRUE(f.view.contains(w));
        }
        break;  // one center per fragment suffices
      }
    }
  }
}

TEST_P(SeededProperty, GraphIoRoundTrip) {
  Graph g = MakeSynthetic(200, 600, 15, GetParam());
  std::ostringstream os;
  ASSERT_TRUE(WriteGraphText(g, os).ok());
  std::istringstream is(os.str());
  auto r = ReadGraphText(is);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), g.num_nodes());
  EXPECT_EQ(r->num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(r->labels().Name(r->node_label(v)),
              g.labels().Name(g.node_label(v)));
    EXPECT_EQ(r->out_degree(v), g.out_degree(v));
  }
}

TEST_P(SeededProperty, JaccardIsAMetricOnMatchSets) {
  Scenario s = MakeScenario(GetParam());
  VF2Matcher m(s.graph);
  std::vector<std::vector<NodeId>> sets;
  for (const Gpar& r : s.rules) {
    auto images = m.Images(r.pr(), r.pr().x());
    std::sort(images.begin(), images.end());
    sets.push_back(std::move(images));
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_DOUBLE_EQ(JaccardDistance(sets[i], sets[i]), 0.0);
    for (size_t j = 0; j < sets.size(); ++j) {
      double dij = JaccardDistance(sets[i], sets[j]);
      EXPECT_GE(dij, 0.0);
      EXPECT_LE(dij, 1.0);
      EXPECT_DOUBLE_EQ(dij, JaccardDistance(sets[j], sets[i]));
      // Triangle inequality (Jaccard distance is a true metric).
      for (size_t k = 0; k < sets.size(); ++k) {
        EXPECT_LE(dij, JaccardDistance(sets[i], sets[k]) +
                           JaccardDistance(sets[k], sets[j]) + 1e-12);
      }
    }
  }
}

/// Full-result fingerprint: every stat a result-identity claim covers, plus
/// the top-k *in order* with per-rule structure (StructuralHash), supports,
/// confidence, and match sets. Two runs with equal fingerprints are
/// indistinguishable to a caller.
std::string ResultFingerprint(const DmineResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "gen=" << r.stats.candidates_generated
     << ";ver=" << r.stats.candidates_verified
     << ";acc=" << r.stats.accepted
     << ";auto=" << r.stats.automorphic_merged
     << ";triv=" << r.stats.trivial_discarded
     << ";obj=" << r.objective << ";topk=[";
  for (const auto& rule : r.topk) {
    os << "{h=" << StructuralHash(rule->rule.pr()) << ";s=" << rule->supp
       << ";n=" << rule->supp_qqbar << ";c=" << rule->conf << ";m=";
    for (NodeId v : rule->matches) os << v << ',';
    os << '}';
  }
  os << ']';
  return os.str();
}

class WorkerCountProperty : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountProperty,
                         ::testing::Values(1, 2, 3, 5));

TEST_P(WorkerCountProperty, DmineAcceptedPoolInvariant) {
  // The number of accepted rules (and objective) must not depend on n:
  // compare every n against the single-worker run.
  Graph g = MakeSynthetic(400, 1200, 20, 9);
  auto freq = FrequentEdgePatterns(g, 1);
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  DmineOptions opt;
  opt.k = 4;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;
  opt.enable_reduction_rules = false;

  opt.num_workers = 1;
  auto reference = Dmine(g, q, opt);
  ASSERT_TRUE(reference.ok());

  opt.num_workers = GetParam();
  auto result = Dmine(g, q, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.accepted, reference->stats.accepted);
  EXPECT_NEAR(result->objective, reference->objective, 1e-9);
}

TEST(WorkerGenDeterminism, ResultsInvariantToWorkersSchedulingAndPath) {
  // Full determinism, top-k order included: DMine's result must not depend
  // on the worker count (which fragment owns and proposes each parent's
  // extensions) or on thread scheduling (repeat runs race workers
  // differently). Run under ASan as part of the sanitizer suite, the
  // repeat-run check doubles as a data-race stability probe on the
  // proposal gather.
  Graph g = MakeSynthetic(600, 1800, 25, 11);
  auto freq = FrequentEdgePatterns(g, 1);
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  DmineOptions opt;
  opt.k = 4;
  opt.d = 2;
  opt.sigma = 2;
  opt.max_pattern_edges = 3;
  opt.seed_edge_limit = 6;

  std::string reference;
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    opt.num_workers = n;
    auto result = Dmine(g, q, opt);
    ASSERT_TRUE(result.ok()) << result.status();
    std::string fp = ResultFingerprint(*result);
    if (reference.empty()) {
      reference = fp;
      EXPECT_FALSE(result->topk.empty());
    } else {
      EXPECT_EQ(fp, reference) << "divergence at n=" << n;
    }
  }
  // Repeat-run stability at the widest fan-out: same fingerprint when the
  // same configuration races its workers a second and third time.
  opt.num_workers = 8;
  for (int rep = 0; rep < 2; ++rep) {
    auto result = Dmine(g, q, opt);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ResultFingerprint(*result), reference)
        << "repeat-run divergence";
  }
}

}  // namespace
}  // namespace gpar
