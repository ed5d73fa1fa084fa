// The `mine` workload: an analyst's offline job. A parallel DMine mines
// the diversified top-k for like_music on a Pokec-like graph, then a batch
// IdentifyEntities runs the mined Σ over every candidate.
//
// Each instance's share of the window is split: the first 60% repeats DMine
// (at least once), each call followed by a burst of IdentifyEntities with
// the first call's Σ; the rest repeats IdentifyEntities (at least 20 calls
// in all; identification is ~40x shorter). The process reports the fastest
// call of each kind and the mined top-k, so that run.py can check that
// every run of the instance mined the same rules.
//
// The fastest call, not the median: on a shared host the slowdowns are
// added by other tenants, come and go within seconds and last for minutes.
// Over 90 s of back-to-back identifications of one Σ, the median of each
// 5 s moved between 21.8 and 33.8 ms, the fastest between 19.4 and 25.0.

#include <algorithm>

#include "bench.h"
#include "graph/graph_snapshot.h"
#include "identify/eip.h"
#include "layers.h"
#include "mine/dmine.h"

namespace perfbench {

using gpar::Graph;

namespace {

bool SameRules(const gpar::DmineResult& a, const gpar::DmineResult& b) {
  if (a.topk.size() != b.topk.size()) return false;
  for (size_t i = 0; i < a.topk.size(); ++i) {
    const gpar::MinedRule& x = *a.topk[i];
    const gpar::MinedRule& y = *b.topk[i];
    if (!(x.rule == y.rule) || x.supp != y.supp || x.conf != y.conf) {
      return false;
    }
  }
  return true;
}

}  // namespace

int RunMine(const RunConfig& cfg, const Params& p, Tracer& tracer,
            Report& report) {
  // ---- Set-up: load the graph snapshot. A load takes a few ms, so it is
  // repeated more often than the other workloads' set-ups for a steady
  // median. ----
  constexpr int kLoads = 15;
  std::vector<double> setup_s;
  gpar::Result<Graph> loaded = gpar::Status::Internal("not loaded");
  for (int i = 0; i < kLoads; ++i) {
    int64_t t0 = Tracer::NowNs();
    {
      Tracer::Scope span(tracer, "graph.ReadGraphSnapshotFile");
      loaded = gpar::ReadGraphSnapshotFile(cfg.dir + "/graph.snap");
    }
    setup_s.push_back(Secs(t0, Tracer::NowNs()));
    if (!loaded.ok()) {
      report.Check(false, "load graph: " + loaded.status().ToString());
      return 1;
    }
  }
  const Graph& g = *loaded;
  auto q = PredicateFromParams(p, g);
  if (!q.ok()) {
    report.Check(false, q.status().ToString());
    return 1;
  }

  gpar::DmineOptions mo;
  mo.num_workers = static_cast<uint32_t>(p.U64("workers"));
  mo.k = static_cast<uint32_t>(p.U64("k"));
  mo.d = static_cast<uint32_t>(p.U64("d"));
  mo.sigma = p.U64("sigma");
  mo.max_pattern_edges = static_cast<uint32_t>(p.U64("max_pattern_edges"));
  gpar::EipOptions eo;
  eo.num_workers = static_cast<uint32_t>(p.U64("identify_workers"));
  eo.eta = p.F64("eta");

  // ---- Measurement window. ----
  const int64_t start = Tracer::NowNs();
  auto elapsed = [start] { return Secs(start, Tracer::NowNs()); };
  uint64_t request = 0;

  std::vector<double> mine_s, coord_s, merge_s, makespan_s, busy_s, imbalance,
      efficiency;
  gpar::Result<gpar::DmineResult> first = gpar::Status::Internal("no run");
  bool deterministic = true;
  std::vector<gpar::Gpar> sigma;
  std::vector<double> identify_s;
  gpar::Result<gpar::EipResult> ident = gpar::Status::Internal("no run");
  auto identify = [&]() {
    int64_t t0 = Tracer::NowNs();
    {
      Tracer::Scope span(tracer, "identify.IdentifyEntities", ++request);
      ident = gpar::IdentifyEntities(g, sigma, eo);
    }
    identify_s.push_back(Secs(t0, Tracer::NowNs()));
    report.Count(1, ident.ok() ? 0 : 1);
    if (!ident.ok()) {
      report.Check(false, "IdentifyEntities: " + ident.status().ToString());
    }
    return ident.ok();
  };
  // A burst of identifications follows every DMine call, so that the
  // identification samples spread over the instance's whole share instead
  // of one stretch of a noisy host.
  constexpr size_t kIdentifyBurst = 10;
  constexpr size_t kMinIdentify = 20;
  while (mine_s.empty() || elapsed() < 0.6 * cfg.seconds) {
    int64_t t0 = Tracer::NowNs();
    gpar::Result<gpar::DmineResult> r = gpar::Status::Internal("no run");
    {
      Tracer::Scope span(tracer, "mine.Dmine", ++request);
      r = gpar::Dmine(g, *q, mo);
    }
    mine_s.push_back(Secs(t0, Tracer::NowNs()));
    report.Count(1, r.ok() ? 0 : 1);
    if (!r.ok()) {
      report.Check(false, "Dmine: " + r.status().ToString());
      return 1;
    }
    const gpar::ParallelTimes& t = r->times;
    double busy = 0, busiest = 0;
    for (double w : t.worker_total_seconds) {
      busy += w;
      busiest = std::max(busiest, w);
    }
    const double workers = static_cast<double>(t.worker_total_seconds.size());
    coord_s.push_back(t.coordinator_seconds);
    merge_s.push_back(r->stats.coordinator_merge_seconds);
    makespan_s.push_back(t.makespan_seconds);
    busy_s.push_back(busy);
    imbalance.push_back(busy > 0 ? busiest / (busy / workers) : 0);
    efficiency.push_back(busy / (workers * mine_s.back()));
    if (!first.ok()) {
      first = std::move(r);
      for (const auto& m : first->topk) sigma.push_back(m->rule);
      report.Check(!sigma.empty(), "Dmine mined no rules");
      if (sigma.empty()) return 1;
    } else {
      deterministic = deterministic && SameRules(*first, *r);
    }
    for (size_t i = 0; i < kIdentifyBurst; ++i) {
      if (!identify()) return 1;
    }
  }
  const gpar::DmineResult& mined = *first;
  while (identify_s.size() < kMinIdentify || elapsed() < cfg.seconds) {
    if (!identify()) return 1;
  }
  const double peak_mb = PeakRssMb();

  const double mine_ms = Min(mine_s) * 1e3;
  const double identify_ms = Min(identify_s) * 1e3;
  report.Metric("setup_s", Min(setup_s), "s");
  report.Metric("peak_rss_mb", peak_mb, "MB");
  report.Metric("main_ms", mine_ms, "ms");
  report.Metric("second_ms", identify_ms, "ms");
  report.Metric("third_ms", mine_ms + identify_ms, "ms");
  report.Note("main_ms", "mine_s: one parallel Dmine call, fastest of " +
                             std::to_string(mine_s.size()) + ": " +
                             std::to_string(mine_ms) + " ms");
  report.Note("second_ms", "identify_s: one IdentifyEntities over all "
                           "candidates, fastest of " +
                               std::to_string(identify_s.size()) + ": " +
                               std::to_string(identify_ms) + " ms");
  report.Note("third_ms", "the analyst's job: fastest Dmine + fastest "
                          "IdentifyEntities");
  std::string topk;
  for (const auto& r : mined.topk) {
    topk += r->rule.Serialize(g.labels()) + " supp=" + std::to_string(r->supp) +
            " conf=" + std::to_string(r->conf) + "; ";
  }
  report.Note("topk", topk);

  // ---- Correctness, off the clock. ----
  report.Check(deterministic, "repeated Dmine runs disagree");
  {
    // Independent evaluation: the single-threaded whole-graph VF2 oracle.
    gpar::EipOptions seq = eo;
    seq.algorithm = gpar::EipAlgorithm::kSequential;
    auto want = gpar::IdentifyEntities(g, sigma, seq);
    report.Check(want.ok(), "sequential evaluation failed");
    if (want.ok()) {
      for (size_t i = 0; i < sigma.size(); ++i) {
        const gpar::MinedRule& r = *mined.topk[i];
        const gpar::EipRuleEval& e = want->rule_evals[i];
        report.Check(r.supp == e.supp_r && r.supp_qqbar == e.supp_qqbar &&
                         r.conf == e.conf,
                     "mined rule " + std::to_string(i) +
                         " support/confidence differs from the sequential "
                         "evaluation");
      }
      report.Check(want->entities == ident->entities,
                   "IdentifyEntities entities differ from the sequential "
                   "evaluation");
    }
  }

  // ---- Per-layer numbers. ----
  if (tracer.enabled()) {
    const gpar::DmineStats& st = mined.stats;
    report.Metric("graph.snapshot_load_s", Median(setup_s), "s");
    report.Metric("pattern.iso_tests", static_cast<double>(st.iso_tests), "count");
    report.Metric("pattern.bisim_tests", static_cast<double>(st.bisim_tests), "count");
    report.Metric("mine.automorphic_merged",
                  static_cast<double>(st.automorphic_merged), "count");
    report.Metric("mine.rounds", mined.times.rounds, "count");
    report.Metric("mine.candidates_verified",
                  static_cast<double>(st.candidates_verified), "count");
    report.Metric("mine.accept_ratio",
                  st.candidates_verified > 0
                      ? static_cast<double>(st.accepted) /
                            static_cast<double>(st.candidates_verified)
                      : 0,
                  "ratio");
    report.Metric("mine.centers_skipped_by_parent",
                  static_cast<double>(st.centers_skipped_by_parent), "count");
    report.Metric("mine.coordinator_s", Median(coord_s), "s");
    report.Metric("mine.coordinator_merge_s", Median(merge_s), "s");
    report.Metric("parallel.makespan_s", Median(makespan_s), "s");
    report.Metric("parallel.worker_busy_s", Median(busy_s), "s");
    report.Metric("parallel.imbalance", Median(imbalance), "ratio");
    report.Metric("parallel.efficiency", Median(efficiency), "ratio");
    report.Metric("identify.exists_queries",
                  static_cast<double>(ident->exists_queries), "count");
    report.Metric("match.exists_calls",
                  static_cast<double>(st.exists_calls + ident->exists_queries),
                  "count");
    report.Metric("match.embeddings",
                  static_cast<double>(ident->embeddings_enumerated), "count");
    auto centers = g.nodes_with_label(q->x_label);
    ReplayPartition(tracer, g, {centers.begin(), centers.end()}, mo.d,
                    mo.num_workers, report);
    ReplayExistsAt(tracer, g, sigma, {centers.begin(), centers.end()},
                   eo.sketch_hops, report);
  }
  return 0;
}

}  // namespace perfbench
