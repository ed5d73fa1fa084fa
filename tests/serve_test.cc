#include "serve/rule_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "graph/paper_graphs.h"
#include "graph/stats.h"
#include "identify/eip.h"
#include "match/matcher.h"
#include "pattern/pattern_generator.h"
#include "rule/rule_snapshot.h"

namespace gpar {
namespace {

struct Workload {
  Graph graph;
  std::vector<Gpar> sigma;
  std::vector<RuleRecord> records;
};

/// A seeded (graph, Σ) pair: small synthetic or Pokec-like graph with a
/// lifted GPAR workload on its most frequent predicate.
Workload MakeWorkload(uint64_t seed) {
  Workload w;
  w.graph = (seed % 3 == 0) ? MakePokecLike(1, seed)
                            : MakeSynthetic(600, 1800, 20, seed);
  auto freq = FrequentEdgePatterns(w.graph);
  EXPECT_FALSE(freq.empty());
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  GparGenOptions gopt;
  gopt.num_nodes = 4;
  gopt.num_edges = 4;
  gopt.max_radius = 2;
  gopt.seed = seed * 31 + 1;
  w.sigma = GenerateGparWorkload(w.graph, q, 5, gopt);
  EXPECT_GE(w.sigma.size(), 2u);
  for (const Gpar& r : w.sigma) w.records.push_back({r, 0, 0.0});
  return w;
}

/// Compares two full Σ(x, G, η) answers — batch `EipResult`s or
/// `all_centers` `SessionReply`s, which carry the same fields.
template <typename Got, typename Want>
void ExpectSameAnswer(const Got& got, const Want& want,
                      const std::string& what) {
  EXPECT_EQ(got.entities, want.entities) << what;
  EXPECT_EQ(got.supp_q, want.supp_q) << what;
  EXPECT_EQ(got.supp_qbar, want.supp_qbar) << what;
  ASSERT_EQ(got.rule_evals.size(), want.rule_evals.size()) << what;
  for (size_t i = 0; i < want.rule_evals.size(); ++i) {
    EXPECT_EQ(got.rule_evals[i].supp_r, want.rule_evals[i].supp_r)
        << what << " rule " << i;
    EXPECT_EQ(got.rule_evals[i].supp_qqbar, want.rule_evals[i].supp_qqbar)
        << what << " rule " << i;
    EXPECT_DOUBLE_EQ(got.rule_evals[i].conf, want.rule_evals[i].conf)
        << what << " rule " << i;
  }
}

EipResult BatchIdentify(const Graph& g, const std::vector<Gpar>& sigma,
                        double eta, bool require_consequent) {
  EipOptions opt;
  opt.algorithm = EipAlgorithm::kMatch;
  opt.num_workers = 3;
  opt.eta = eta;
  opt.require_consequent = require_consequent;
  auto r = IdentifyEntities(g, sigma, opt);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

/// The serving session's full Σ(x, G, η) answer.
Result<SessionReply> QueryAll(ServeSession& s, double eta,
                              bool require_consequent = false) {
  SessionRequest req;
  req.all_centers = true;
  req.eta = eta;
  req.require_consequent = require_consequent;
  return s.Query(req);
}

/// A pure-insert mutation batch.
GraphDelta InsertBatch(std::vector<EdgeInsert> inserts) {
  GraphDelta d;
  d.inserts = std::move(inserts);
  return d;
}

/// Direct per-(rule, center) oracle for point queries: fresh whole-graph
/// matching, no caches.
std::vector<uint32_t> OracleMatched(const Graph& g,
                                    const std::vector<Gpar>& sigma,
                                    NodeId center, bool require_consequent) {
  VF2Matcher m(g);
  std::vector<char> other_ok = OtherComponentsOk(g, sigma);
  std::vector<uint32_t> out;
  for (uint32_t ri = 0; ri < sigma.size(); ++ri) {
    bool hit;
    if (require_consequent) {
      hit = m.ExistsAt(sigma[ri].pr(), center);
    } else {
      hit = m.ExistsAt(sigma[ri].x_component(), center) && other_ok[ri] != 0;
    }
    if (hit) out.push_back(ri);
  }
  return out;
}

std::vector<EdgeInsert> MakeDelta(const Graph& g, uint64_t seed, size_t k) {
  std::mt19937_64 rng(seed);
  std::vector<LabelId> edge_labels;
  for (NodeId v = 0; v < g.num_nodes() && edge_labels.size() < 8; ++v) {
    for (const AdjEntry& e : g.out_edges(v)) {
      if (std::find(edge_labels.begin(), edge_labels.end(), e.label) ==
          edge_labels.end()) {
        edge_labels.push_back(e.label);
      }
    }
  }
  std::vector<EdgeInsert> inserts;
  for (size_t i = 0; i < k; ++i) {
    NodeId src = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId dst = static_cast<NodeId>(rng() % g.num_nodes());
    LabelId l = edge_labels[rng() % edge_labels.size()];
    inserts.push_back({src, l, dst});
  }
  return inserts;
}

/// Snapshot bytes as a complete graph fingerprint (the snapshot writer is
/// deterministic, so byte equality means CSR equality).
std::string GraphBytes(const Graph& g) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteGraphSnapshot(g, os).ok());
  return os.str();
}

/// Picks a node with at least one out-edge, scanning forward from a random
/// start (the synthetic generators leave some nodes bare).
NodeId PickSourceNode(const Graph& g, std::mt19937_64& rng) {
  NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
  while (g.out_edges(v).empty()) v = (v + 1) % g.num_nodes();
  return v;
}

/// A mutation batch mixing both directions: `k` random inserts over the
/// graph's discovered edge labels, `k` deletes of real out-edges, one
/// delete of a (almost surely) absent edge — tolerated, counted missing —
/// and, on even seeds, a delete-then-reinsert of one edge within the same
/// batch, which must leave the edge present.
GraphDelta MakeMutationDelta(const Graph& g, uint64_t seed, size_t k) {
  std::mt19937_64 rng(seed);
  GraphDelta d;
  d.inserts = MakeDelta(g, seed * 5 + 1, k);
  for (size_t i = 0; i < k; ++i) {
    NodeId v = PickSourceNode(g, rng);
    const auto edges = g.out_edges(v);
    const AdjEntry& e = edges[rng() % edges.size()];
    d.deletes.push_back({v, e.label, e.other});
  }
  d.deletes.push_back({static_cast<NodeId>(rng() % g.num_nodes()),
                       static_cast<LabelId>(g.labels().size() - 1),
                       static_cast<NodeId>(rng() % g.num_nodes())});
  if (seed % 2 == 0) {
    NodeId v = PickSourceNode(g, rng);
    const AdjEntry& e = g.out_edges(v)[0];
    d.deletes.push_back({v, e.label, e.other});
    d.inserts.push_back({v, e.label, e.other});
  }
  return d;
}

std::vector<NodeId> SampleCenters(const RuleServer& server, uint64_t seed,
                                  size_t k) {
  std::mt19937_64 rng(seed);
  std::vector<NodeId> centers;
  const auto& cands = server.candidates();
  for (size_t i = 0; i < k && !cands.empty(); ++i) {
    centers.push_back(cands[rng() % cands.size()]);
  }
  // A couple of non-candidates (legal; they match nothing).
  centers.push_back(
      static_cast<NodeId>(rng() % server.graph_snapshot()->num_nodes()));
  return centers;
}

/// The acceptance battery: RuleServer answers — cold, warm-cache, and after
/// ApplyDelta — identical to a fresh batch IdentifyEntities run on the
/// equivalent graph, across seeds and worker counts.
TEST(ServeEquivalence, ColdWarmAndDeltaMatchBatch) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);

    EipResult batch_lo = BatchIdentify(w.graph, w.sigma, 0.5, false);
    EipResult batch_hi = BatchIdentify(w.graph, w.sigma, 1.2, false);
    EipResult batch_pr = BatchIdentify(w.graph, w.sigma, 0.5, true);

    std::vector<EdgeInsert> delta = MakeDelta(w.graph, seed * 977 + 5, 6);
    auto patchref = PatchGraph(w.graph, InsertBatch(delta));
    ASSERT_TRUE(patchref.ok());
    EipResult batch_patched =
        BatchIdentify(patchref->graph, w.sigma, 0.5, false);

    for (uint32_t n : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      RuleServerOptions opt;
      opt.num_workers = n;
      auto server = RuleServer::Create(w.graph, w.records, opt);
      ASSERT_TRUE(server.ok()) << server.status();
      RuleServer& s = **server;

      // Cold.
      auto cold = QueryAll(s, 0.5);
      ASSERT_TRUE(cold.ok()) << cold.status();
      ExpectSameAnswer(*cold, batch_lo, "cold");
      const ServeStats cold_stats = cold->stats;
      EXPECT_GT(cold_stats.cache_probes, 0u);

      // Warm: different eta, P_R semantics — all from cache.
      auto warm = QueryAll(s, 1.2);
      ASSERT_TRUE(warm.ok());
      ExpectSameAnswer(*warm, batch_hi, "warm");
      EXPECT_EQ(warm->stats.cache_probes, 0u);
      EXPECT_GT(warm->stats.cache_hits, 0u);
      auto warm_pr = QueryAll(s, 0.5, true);
      ASSERT_TRUE(warm_pr.ok());
      ExpectSameAnswer(*warm_pr, batch_pr, "warm require_consequent");

      // Point queries against the fresh-match oracle.
      SessionRequest req;
      req.centers = SampleCenters(s, seed + n, 6);
      auto reply = s.Query(req);
      ASSERT_TRUE(reply.ok()) << reply.status();
      ASSERT_EQ(reply->matched.size(), req.centers.size());
      for (size_t i = 0; i < req.centers.size(); ++i) {
        EXPECT_EQ(reply->matched[i],
                  OracleMatched(w.graph, w.sigma, req.centers[i], false))
            << "center " << req.centers[i];
      }

      // Delta-then-query == rebuild-then-query.
      auto ds = s.ApplyDelta(InsertBatch(delta));
      ASSERT_TRUE(ds.ok()) << ds.status();
      auto after = QueryAll(s, 0.5);
      ASSERT_TRUE(after.ok());
      ExpectSameAnswer(*after, batch_patched, "after delta");
      // Locality: a 6-edge delta must not flush the whole cache.
      EXPECT_LE(after->stats.cache_probes, cold_stats.cache_probes);

      // Point queries on the patched graph (exercises the partial per-rule
      // probe path on half-invalidated centers).
      auto reply2 = s.Query(req);
      ASSERT_TRUE(reply2.ok());
      for (size_t i = 0; i < req.centers.size(); ++i) {
        EXPECT_EQ(reply2->matched[i],
                  OracleMatched(patchref->graph, w.sigma, req.centers[i],
                                false))
            << "patched center " << req.centers[i];
      }
    }
  }
}

TEST(ServeEquivalence, GuidedAndPlainAgree) {
  Workload w = MakeWorkload(1);
  EipResult batch = BatchIdentify(w.graph, w.sigma, 0.8, false);
  for (bool guided : {false, true}) {
    for (bool share : {false, true}) {
      for (bool precompute : {false, true}) {
        RuleServerOptions opt;
        opt.use_guided_search = guided;
        opt.share_multi_patterns = share;
        opt.precompute_sketches = precompute;
        auto server = RuleServer::Create(w.graph, w.records, opt);
        ASSERT_TRUE(server.ok()) << server.status();
        auto got = QueryAll(**server, 0.8);
        ASSERT_TRUE(got.ok());
        ExpectSameAnswer(*got, batch,
                         "guided=" + std::to_string(guided) +
                             " share=" + std::to_string(share) +
                             " precompute=" + std::to_string(precompute));
      }
    }
  }
}

TEST(ServeEquivalence, TinyCacheStillCorrect) {
  // Capacity far below the candidate count: the LRU thrashes, answers must
  // not change (the transient request rows, not the cache, carry results).
  Workload w = MakeWorkload(2);
  EipResult batch = BatchIdentify(w.graph, w.sigma, 0.5, false);
  RuleServerOptions opt;
  opt.cache_capacity = 8;  // (rule, center) pairs — a handful of centers
  auto server = RuleServer::Create(w.graph, w.records, opt);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  for (int round = 0; round < 2; ++round) {
    auto got = QueryAll(s, 0.5);
    ASSERT_TRUE(got.ok());
    ExpectSameAnswer(*got, batch, "tiny cache round " + std::to_string(round));
  }
  EXPECT_LE(s.cached_centers(), 8u);

  SessionRequest req;
  req.centers = SampleCenters(s, 9, 5);
  auto reply = s.Query(req);
  ASSERT_TRUE(reply.ok());
  for (size_t i = 0; i < req.centers.size(); ++i) {
    EXPECT_EQ(reply->matched[i],
              OracleMatched(w.graph, w.sigma, req.centers[i], false));
  }
}

TEST(ServeEquivalence, SnapshotLoadRoundTrip) {
  // mine -> write snapshot pair -> Load: same answers as in-memory Create.
  Workload w = MakeWorkload(4);
  std::string dir = ::testing::TempDir();
  std::string gpath = dir + "/serve_test_graph.snap";
  std::string rpath = dir + "/serve_test_rules.snap";
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());

  auto loaded = RuleServer::Load(gpath, rpath);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto in_memory = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(in_memory.ok());

  auto a = QueryAll(**loaded, 0.7);
  auto b = QueryAll(**in_memory, 0.7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswer(*a, *b, "loaded vs in-memory");
  EXPECT_EQ((*loaded)->rules().size(), w.records.size());
}

TEST(ServeEquivalence, DeltaEquivalentToFreshServer) {
  Workload w = MakeWorkload(5);
  std::vector<EdgeInsert> delta = MakeDelta(w.graph, 123, 10);
  auto patchref = PatchGraph(w.graph, InsertBatch(delta));
  ASSERT_TRUE(patchref.ok());

  auto live = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(QueryAll(**live, 0.5).ok());  // warm up pre-delta
  auto ds = (*live)->ApplyDelta(InsertBatch(delta));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->edges_inserted, patchref->edges_inserted);

  auto fresh = RuleServer::Create(patchref->graph, w.records);
  ASSERT_TRUE(fresh.ok());

  auto a = QueryAll(**live, 0.5);
  auto b = QueryAll(**fresh, 0.5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswer(*a, *b, "delta-maintained vs fresh");
}

// A rule refresh keeps the match cache: a cached bit follows its rule to
// its new index. One that moves only supp/conf, and one that only reorders
// the rules, both leave the next identical query all hits, and both
// answer like a fresh server on the refreshed set.
TEST(ServeEquivalence, SupportOnlyRefreshKeepsCache) {
  Workload w = MakeWorkload(4);
  ASSERT_GE(w.records.size(), 2u);
  auto live = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE(QueryAll(**live, 0.5).ok());  // fills the cache
  const size_t cached = (*live)->cached_centers();
  ASSERT_GT(cached, 0u);

  std::vector<RuleRecord> restated = w.records;
  for (size_t i = 0; i < restated.size(); ++i) {
    restated[i].supp = 10 + i;
    restated[i].conf = 0.25 * static_cast<double>(i + 1);
  }
  ASSERT_TRUE((*live)->UpdateRules(restated).ok());
  EXPECT_EQ((*live)->rules(), restated);
  EXPECT_EQ((*live)->cached_centers(), cached);
  auto warm = QueryAll(**live, 0.5);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->stats.cache_probes, 0u) << "a cached membership was lost";
  EXPECT_GT(warm->stats.cache_hits, 0u);
  auto fresh = RuleServer::Create(w.graph, restated);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  auto want = QueryAll(**fresh, 0.5);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameAnswer(*warm, *want, "supp/conf-only refresh");

  // Same rules, new order: bit i now means another rule, so every cached
  // bit moves with its rule and nothing needs a probe.
  std::vector<RuleRecord> reordered(restated.rbegin(), restated.rend());
  DeltaStats ds;
  ASSERT_TRUE((*live)->UpdateRules(reordered, &ds).ok());
  EXPECT_EQ(ds.memberships_refilled, 0u);
  EXPECT_EQ((*live)->cached_centers(), cached);
  auto moved = QueryAll(**live, 0.5);
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_EQ(moved->stats.cache_probes, 0u) << "a reordered bit was lost";
  auto fresh_reordered = RuleServer::Create(w.graph, reordered);
  ASSERT_TRUE(fresh_reordered.ok()) << fresh_reordered.status();
  auto want_reordered = QueryAll(**fresh_reordered, 0.5);
  ASSERT_TRUE(want_reordered.ok()) << want_reordered.status();
  ExpectSameAnswer(*moved, *want_reordered, "refresh that changes sigma");
}

// A refresh that replaces one rule probes the entering rule for every
// cached center before it returns, so the next all-centers query is all
// hits — and answers like a fresh server on the new set.
TEST(ServeEquivalence, RuleReplacementRefillsCache) {
  for (uint64_t seed : {1u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);
    ASSERT_GE(w.records.size(), 3u);
    const std::vector<RuleRecord> before(w.records.begin(),
                                         w.records.end() - 1);
    std::vector<RuleRecord> after = before;
    after[1] = w.records.back();  // rule 1 leaves, the last rule enters
    auto live = RuleServer::Create(w.graph, before);
    ASSERT_TRUE(live.ok()) << live.status();
    ASSERT_TRUE(QueryAll(**live, 0.5).ok());  // fills the cache
    const size_t cached = (*live)->cached_centers();
    ASSERT_GT(cached, 0u);

    DeltaStats ds;
    ASSERT_TRUE((*live)->UpdateRules(after, &ds).ok());
    EXPECT_EQ(ds.memberships_refilled, cached * 1);
    EXPECT_EQ((*live)->cached_centers(), cached);
    auto got = QueryAll(**live, 0.5);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->stats.cache_probes, 0u);
    auto fresh = RuleServer::Create(w.graph, after);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    auto want = QueryAll(**fresh, 0.5);
    ASSERT_TRUE(want.ok()) << want.status();
    ExpectSameAnswer(*got, *want, "one rule replaced");
  }
}

// Readers query all centers while a writer alternates two rule sets with
// UpdateRules and inserts / deletes a q-edge with ApplyDelta in between.
// Every reply must be the answer of a fresh server on the rule set it
// reports (named by its rule count), on one of the two graphs — never a
// mix of rule sets or of graphs.
TEST(ServeConcurrency, ReadersSeeWholeRuleSetsAcrossRefreshes) {
  Workload w = MakeWorkload(1);
  ASSERT_GE(w.records.size(), 3u);
  const std::vector<RuleRecord> set_a(w.records.begin(), w.records.end() - 1);
  const std::vector<RuleRecord> set_b{w.records.back(), w.records[1],
                                      w.records[0]};
  ASSERT_NE(set_a.size(), set_b.size());

  RuleServerOptions opt;
  opt.num_workers = 2;
  auto live = RuleServer::Create(w.graph, set_a, opt);
  ASSERT_TRUE(live.ok()) << live.status();
  RuleServer& s = **live;
  // A candidate without a q-edge gains one: its q-class flips, and with it
  // the supports of the reply.
  const Predicate q = s.predicate();
  GraphDelta add, remove;
  for (NodeId c : s.candidates()) {
    if (!w.graph.HasOutLabel(c, q.edge_label)) {
      add.inserts = {{c, q.edge_label, w.graph.nodes_with_label(q.y_label)[0]}};
      break;
    }
  }
  ASSERT_FALSE(add.inserts.empty());
  remove.deletes = {{add.inserts[0].src, add.inserts[0].label,
                     add.inserts[0].dst}};
  auto patched = PatchGraph(w.graph, add);
  ASSERT_TRUE(patched.ok()) << patched.status();

  auto want_of = [&](const Graph& g, const std::vector<RuleRecord>& set) {
    auto fresh = RuleServer::Create(g, set);
    EXPECT_TRUE(fresh.ok()) << fresh.status();
    auto r = QueryAll(**fresh, 0.5);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  };
  const SessionReply want[2][2] = {
      {want_of(w.graph, set_a), want_of(patched->graph, set_a)},
      {want_of(w.graph, set_b), want_of(patched->graph, set_b)}};
  ASSERT_NE(want[0][0].supp_q, want[0][1].supp_q);
  auto same = [](const SessionReply& got, const SessionReply& ref) {
    if (got.entities != ref.entities || got.supp_q != ref.supp_q ||
        got.supp_qbar != ref.supp_qbar ||
        got.rule_evals.size() != ref.rule_evals.size()) {
      return false;
    }
    for (size_t i = 0; i < ref.rule_evals.size(); ++i) {
      if (got.rule_evals[i].supp_r != ref.rule_evals[i].supp_r ||
          got.rule_evals[i].supp_qqbar != ref.rule_evals[i].supp_qqbar) {
        return false;
      }
    }
    return true;
  };

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      // At least two replies each, so some overlap the refreshes.
      for (int n = 0; n < 2 || !done.load(); ++n) {
        auto r = QueryAll(s, 0.5);
        if (!r.ok()) {
          ADD_FAILURE() << r.status();
          return;
        }
        const int set = r->rule_evals.size() == set_a.size() ? 0 : 1;
        EXPECT_TRUE(same(*r, want[set][0]) || same(*r, want[set][1]))
            << "a reply mixes rule sets or graphs (set " << set << ")";
      }
    });
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(s.UpdateRules(i % 2 == 0 ? set_b : set_a).ok());
    EXPECT_TRUE(s.ApplyDelta(i % 2 == 0 ? add : remove).ok());
  }
  done = true;
  for (std::thread& t : readers) t.join();
  auto last = QueryAll(s, 0.5);
  ASSERT_TRUE(last.ok()) << last.status();
  ExpectSameAnswer(*last, want[0][0], "after the last refresh");
}

/// The insert+delete acceptance battery: a randomized interleaved mutation
/// stream, checked against fresh batch mining at cold, warm, mid-stream,
/// and final checkpoints, and against a from-scratch server on the final
/// edge list.
TEST(DeltaStreamEquivalence, InterleavedStreamMatchesBatchAndFresh) {
  constexpr int kBatches = 4;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);

    // The reference trajectory: the graph after each batch, rebuilt by
    // PatchGraph outside any server.
    std::vector<GraphDelta> stream;
    std::vector<Graph> after;
    after.reserve(kBatches);
    for (int b = 0; b < kBatches; ++b) {
      const Graph& cur = (b == 0) ? w.graph : after.back();
      GraphDelta d = MakeMutationDelta(cur, seed * 613 + b, 5);
      d.sequence = static_cast<uint64_t>(b) + 1;
      auto p = PatchGraph(cur, d);
      ASSERT_TRUE(p.ok()) << p.status();
      after.push_back(std::move(p->graph));
      stream.push_back(std::move(d));
    }
    const Graph& mid_graph = after[kBatches / 2 - 1];
    const Graph& final_graph = after.back();

    EipResult batch_cold = BatchIdentify(w.graph, w.sigma, 0.5, false);
    EipResult batch_mid = BatchIdentify(mid_graph, w.sigma, 0.5, false);
    EipResult batch_final = BatchIdentify(final_graph, w.sigma, 0.5, false);

    for (uint32_t n : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      RuleServerOptions opt;
      opt.num_workers = n;
      auto server = RuleServer::Create(w.graph, w.records, opt);
      ASSERT_TRUE(server.ok()) << server.status();
      RuleServer& s = **server;

      // Cold, then warm (all from cache).
      auto cold = QueryAll(s, 0.5);
      ASSERT_TRUE(cold.ok()) << cold.status();
      ExpectSameAnswer(*cold, batch_cold, "cold");
      auto warm = QueryAll(s, 0.5);
      ASSERT_TRUE(warm.ok());
      ExpectSameAnswer(*warm, batch_cold, "warm");
      EXPECT_EQ(warm->stats.cache_probes, 0u);

      // Mid-stream checkpoint.
      for (int b = 0; b < kBatches / 2; ++b) {
        auto ds = s.ApplyDelta(stream[b]);
        ASSERT_TRUE(ds.ok()) << ds.status();
      }
      auto mid = QueryAll(s, 0.5);
      ASSERT_TRUE(mid.ok());
      ExpectSameAnswer(*mid, batch_mid, "mid-stream");

      // Final checkpoint, against batch AND a fresh server on the final
      // edge list.
      for (int b = kBatches / 2; b < kBatches; ++b) {
        auto ds = s.ApplyDelta(stream[b]);
        ASSERT_TRUE(ds.ok()) << ds.status();
      }
      EXPECT_EQ(GraphBytes(*s.graph_snapshot()), GraphBytes(final_graph));
      auto fin = QueryAll(s, 0.5);
      ASSERT_TRUE(fin.ok());
      ExpectSameAnswer(*fin, batch_final, "final vs batch");

      auto fresh = RuleServer::Create(final_graph, w.records, opt);
      ASSERT_TRUE(fresh.ok());
      auto fresh_ans = QueryAll(**fresh, 0.5);
      ASSERT_TRUE(fresh_ans.ok());
      ExpectSameAnswer(*fin, *fresh_ans, "final vs fresh server");

      // Point queries against the fresh-match oracle on the final graph.
      SessionRequest req;
      req.centers = SampleCenters(s, seed * 7 + n, 5);
      auto reply = s.Query(req);
      ASSERT_TRUE(reply.ok()) << reply.status();
      for (size_t i = 0; i < req.centers.size(); ++i) {
        EXPECT_EQ(reply->matched[i],
                  OracleMatched(final_graph, w.sigma, req.centers[i], false))
            << "center " << req.centers[i];
      }
    }
  }
}

/// Deleting every q-edge out of every candidate drives supp(q) to zero —
/// the non-monotone direction a pure-insert pipeline never exercises.
TEST(DeltaStreamEquivalence, DeletesCollapseSupportBelowSigma) {
  Workload w = MakeWorkload(1);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  auto before = QueryAll(s, 0.5);
  ASSERT_TRUE(before.ok());
  EXPECT_GT(before->supp_q, 0u);

  const Predicate& q = s.predicate();
  GraphDelta wipe;
  wipe.sequence = 1;
  for (NodeId c : s.candidates()) {
    for (const AdjEntry& e : w.graph.out_edges(c)) {
      if (e.label == q.edge_label &&
          w.graph.node_label(e.other) == q.y_label) {
        wipe.deletes.push_back({c, e.label, e.other});
      }
    }
  }
  ASSERT_FALSE(wipe.deletes.empty());
  auto ds = s.ApplyDelta(wipe);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->edges_deleted, wipe.deletes.size());
  EXPECT_EQ(ds->deletes_missing, 0u);

  auto p = PatchGraph(w.graph, wipe);
  ASSERT_TRUE(p.ok());
  auto shrunk = QueryAll(s, 0.5);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_EQ(shrunk->supp_q, 0u);
  ExpectSameAnswer(*shrunk, BatchIdentify(p->graph, w.sigma, 0.5, false),
                   "support wiped vs batch");
  auto fresh = RuleServer::Create(p->graph, w.records);
  ASSERT_TRUE(fresh.ok());
  auto f = QueryAll(**fresh, 0.5);
  ASSERT_TRUE(f.ok());
  ExpectSameAnswer(*shrunk, *f, "support wiped vs fresh server");
}

/// Drop a handful of real edges, then reinsert them in a later batch: the
/// maintained graph must come back byte-identical and every answer with
/// it. The sampled batch may delete the same edge twice — tolerated.
TEST(DeltaStreamEquivalence, DeleteThenReinsertRestoresAnswers) {
  Workload w = MakeWorkload(2);
  EipResult batch = BatchIdentify(w.graph, w.sigma, 0.5, false);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  ASSERT_TRUE(QueryAll(s, 0.5).ok());  // warm up pre-delete

  std::mt19937_64 rng(99);
  GraphDelta drop;
  drop.sequence = 1;
  for (int i = 0; i < 8; ++i) {
    NodeId v = PickSourceNode(w.graph, rng);
    const auto edges = w.graph.out_edges(v);
    const AdjEntry& e = edges[rng() % edges.size()];
    drop.deletes.push_back({v, e.label, e.other});
  }
  auto ds1 = s.ApplyDelta(drop);
  ASSERT_TRUE(ds1.ok()) << ds1.status();
  auto p = PatchGraph(w.graph, drop);
  ASSERT_TRUE(p.ok());
  auto shrunk = QueryAll(s, 0.5);
  ASSERT_TRUE(shrunk.ok());
  ExpectSameAnswer(*shrunk, BatchIdentify(p->graph, w.sigma, 0.5, false),
                   "after drop");

  GraphDelta put;
  put.sequence = 2;
  for (const EdgeDelete& e : drop.deletes) {
    put.inserts.push_back({e.src, e.label, e.dst});
  }
  auto ds2 = s.ApplyDelta(put);
  ASSERT_TRUE(ds2.ok()) << ds2.status();
  EXPECT_EQ(GraphBytes(*s.graph_snapshot()), GraphBytes(w.graph));
  auto back = QueryAll(s, 0.5);
  ASSERT_TRUE(back.ok());
  ExpectSameAnswer(*back, batch, "after reinsert");
}

TEST(RuleServerTest, DuplicateDeltaIsNoOp) {
  Workload w = MakeWorkload(3);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  ASSERT_TRUE(QueryAll(s, 0.5).ok());

  // Re-insert an existing edge: nothing invalidated, cache stays warm.
  const auto g = s.graph_snapshot();
  NodeId v = 0;
  while (g->out_edges(v).empty()) ++v;
  AdjEntry e = g->out_edges(v)[0];
  auto ds = s.ApplyDelta(InsertBatch({{v, e.label, e.other}}));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->edges_inserted, 0u);
  EXPECT_EQ(ds->duplicates_ignored, 1u);
  EXPECT_EQ(ds->memberships_invalidated, 0u);

  auto warm = QueryAll(s, 0.5);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.cache_probes, 0u);
}

TEST(RuleServerTest, InputValidation) {
  Workload w = MakeWorkload(1);

  // Empty rule set.
  EXPECT_FALSE(RuleServer::Create(w.graph, {}).ok());

  // Mixed predicates.
  PaperG1 g1 = MakePaperG1();
  PaperG2 g2 = MakePaperG2();
  std::vector<RuleRecord> mixed{{g1.r1, 0, 0}, {g2.r4, 0, 0}};
  EXPECT_FALSE(RuleServer::Create(g1.graph, mixed).ok());

  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;

  // Center out of range.
  const NodeId num_nodes = s.graph_snapshot()->num_nodes();
  SessionRequest bad_center;
  bad_center.centers = {num_nodes + 7};
  EXPECT_FALSE(s.Query(bad_center).ok());

  // Rule index out of range.
  SessionRequest bad_rule;
  bad_rule.centers = {0};
  bad_rule.rules = {static_cast<uint32_t>(w.sigma.size())};
  EXPECT_FALSE(s.Query(bad_rule).ok());

  // Non-positive eta.
  EXPECT_FALSE(QueryAll(s, 0).ok());

  // Delta referencing unknown node.
  LabelId l = s.graph_snapshot()->node_label(0);
  EXPECT_FALSE(s.ApplyDelta(InsertBatch({{num_nodes, l, 0}})).ok());
}

TEST(RuleServerTest, RuleSubsetRequestsProbeOnlySelected) {
  Workload w = MakeWorkload(0);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;

  SessionRequest req;
  req.centers = SampleCenters(s, 17, 4);
  req.rules = {0};
  auto reply = s.Query(req);
  ASSERT_TRUE(reply.ok());
  for (size_t i = 0; i < req.centers.size(); ++i) {
    auto oracle = OracleMatched(w.graph, w.sigma, req.centers[i], false);
    std::vector<uint32_t> want;
    if (std::find(oracle.begin(), oracle.end(), 0u) != oracle.end()) {
      want.push_back(0);
    }
    EXPECT_EQ(reply->matched[i], want);
  }
  // Only rule 0 was probed at each fresh center.
  EXPECT_LE(reply->stats.cache_probes, req.centers.size());

  // The same centers for all rules: rule 0 comes from cache.
  SessionRequest all;
  all.centers = req.centers;
  auto reply2 = s.Query(all);
  ASSERT_TRUE(reply2.ok());
  EXPECT_GT(reply2->stats.cache_hits, 0u);
  for (size_t i = 0; i < all.centers.size(); ++i) {
    EXPECT_EQ(reply2->matched[i],
              OracleMatched(w.graph, w.sigma, all.centers[i], false));
  }
}

TEST(RuleServerTest, RequireConsequentSemantics) {
  Workload w = MakeWorkload(2);
  auto server = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(server.ok());
  RuleServer& s = **server;
  SessionRequest req;
  req.centers = SampleCenters(s, 3, 6);
  req.require_consequent = true;
  auto reply = s.Query(req);
  ASSERT_TRUE(reply.ok());
  for (size_t i = 0; i < req.centers.size(); ++i) {
    EXPECT_EQ(reply->matched[i],
              OracleMatched(w.graph, w.sigma, req.centers[i], true));
  }
}

}  // namespace
}  // namespace gpar
