// The `churn` workload: the durable, maintained deployment with writes
// beside reads. One RuleServer over a Pokec-like graph is loaded from the
// snapshot pair with a delta journal attached (fsync off) and
// maintain-on-ApplyDelta enabled. For the whole window one writer applies
// the insert+delete batches back to back (closed loop) while one reader
// sends point queries with 1 ms think time after each reply (closed loop),
// every other one about centers near the last applied batch. After the
// window the server checkpoints, journals a few more batches and is
// recovered from the checkpoint plus journal.

#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "graph/graph_snapshot.h"
#include "layers.h"
#include "mine/dmine.h"
#include "serve/rule_server.h"

namespace perfbench {

namespace {

struct Setup {
  std::unique_ptr<gpar::RuleServer> server;
  double total_s = 0;
  double load_s = 0;
};

/// Load + AttachJournal + EnableMaintenance: the deployment's start-up.
gpar::Result<Setup> StartServer(Tracer& tracer, const std::string& graph_snap,
                                const std::string& rules_snap,
                                const std::string& journal,
                                const gpar::RuleServerOptions& ro,
                                const gpar::MaintainOptions& mopt) {
  std::remove(journal.c_str());
  Setup s;
  const int64_t t0 = Tracer::NowNs();
  {
    Tracer::Scope span(tracer, "serve.RuleServer::Load");
    GPAR_ASSIGN_OR_RETURN(s.server,
                          gpar::RuleServer::Load(graph_snap, rules_snap, ro));
  }
  s.load_s = Secs(t0, Tracer::NowNs());
  {
    Tracer::Scope span(tracer, "serve.AttachJournal");
    GPAR_RETURN_NOT_OK(s.server->AttachJournal(journal, {}));
  }
  {
    Tracer::Scope span(tracer, "maintain.EnableMaintenance");
    GPAR_RETURN_NOT_OK(s.server->EnableMaintenance(mopt));
  }
  s.total_s = Secs(t0, Tracer::NowNs());
  return s;
}

/// One per-pass sample of the maintainer's counters (difference of the
/// lifetime totals around one ApplyDelta).
struct PassSample {
  double delta_ms = 0;
  double pass_ms = 0;
  double affected = 0, reprobed = 0, carried = 0, exists = 0, reexpanded = 0;
  double invalidated_frac = 0;
  double journal_bytes = 0;
};

std::vector<double> Column(const std::vector<PassSample>& v,
                           double PassSample::*field) {
  std::vector<double> out;
  for (const PassSample& s : v) out.push_back(s.*field);
  return out;
}

bool SameAnswer(const gpar::SessionReply& a, const gpar::SessionReply& b) {
  if (a.matched != b.matched || a.entities != b.entities ||
      a.supp_q != b.supp_q || a.supp_qbar != b.supp_qbar ||
      a.rule_evals.size() != b.rule_evals.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rule_evals.size(); ++i) {
    if (a.rule_evals[i].supp_r != b.rule_evals[i].supp_r ||
        a.rule_evals[i].conf != b.rule_evals[i].conf) {
      return false;
    }
  }
  return true;
}

}  // namespace

int RunChurn(const RunConfig& cfg, const Params& p, Tracer& tracer,
             Report& report) {
  const std::string graph_snap = cfg.dir + "/graph.snap";
  const std::string rules_snap = cfg.dir + "/rules.snap";
  const std::string journal = cfg.dir + "/journal.log";
  const std::string checkpoint = cfg.dir + "/checkpoint.snap";
  gpar::RuleServerOptions ro;
  ro.num_workers = static_cast<uint32_t>(p.U64("workers"));
  ro.cache_capacity = p.U64("cache_capacity");
  gpar::MaintainOptions mopt;
  mopt.mine.num_workers = ro.num_workers;
  mopt.mine.k = static_cast<uint32_t>(p.U64("k"));
  mopt.mine.d = static_cast<uint32_t>(p.U64("d"));
  mopt.mine.sigma = p.U64("sigma");
  mopt.mine.max_pattern_edges =
      static_cast<uint32_t>(p.U64("max_pattern_edges"));
  const size_t tail = p.U64("tail_batches");

  // ---- Set-up (twice; setup_s is the median). ----
  constexpr int kSetups = 2;
  std::vector<double> setup_s, load_s;
  std::unique_ptr<gpar::RuleServer> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    auto s = StartServer(tracer, graph_snap, rules_snap, journal, ro, mopt);
    if (!s.ok()) {
      report.Check(false, "start-up: " + s.status().ToString());
      return 1;
    }
    setup_s.push_back(s->total_s);
    load_s.push_back(s->load_s);
    server = std::move(s->server);
  }
  const double evidence_bytes =
      static_cast<double>(server->maintain_stats().evidence_bytes_delta);
  const auto g0 = server->graph_snapshot();
  auto deltas = ReadDeltas(cfg.dir + "/deltas.bin");
  auto near = ReadRequests(cfg.dir + "/near.bin", g0->num_nodes());
  auto reqs = ReadRequests(cfg.dir + "/requests.bin", g0->num_nodes());
  if (!deltas.ok() || !near.ok() || !reqs.ok() || reqs->empty() ||
      near->size() != deltas->size() || deltas->size() <= tail) {
    report.Check(false, "bad churn inputs");
    return 1;
  }

  // ---- Measurement window: one writer, one reader. ----
  const int64_t end = Tracer::NowNs() + static_cast<int64_t>(cfg.seconds * 1e9);
  std::atomic<int64_t> last_batch{-1};
  std::atomic<uint64_t> ids{1};
  std::vector<PassSample> passes;
  uint64_t writer_failed = 0;
  std::thread writer([&] {
    for (size_t b = 0; b + tail < deltas->size() && Tracer::NowNs() < end;
         ++b) {
      PassSample ps;
      const gpar::MaintainStats before = server->maintain_stats();
      const double cached = static_cast<double>(server->cached_centers()) *
                            static_cast<double>(server->rules().size());
      const int64_t t0 = Tracer::NowNs();
      gpar::Result<gpar::DeltaStats> ds = gpar::Status::Internal("none");
      {
        Tracer::Scope span(tracer, "serve.ApplyDelta",
                           ids.fetch_add(1, std::memory_order_relaxed));
        ds = server->ApplyDelta((*deltas)[b]);
      }
      ps.delta_ms = Secs(t0, Tracer::NowNs()) * 1e3;
      if (!ds.ok()) {
        ++writer_failed;
        std::fprintf(stderr, "ApplyDelta: %s\n", ds.status().ToString().c_str());
        break;
      }
      const gpar::MaintainStats after = server->maintain_stats();
      ps.pass_ms = (after.seconds - before.seconds) * 1e3;
      ps.affected = static_cast<double>(after.affected_nodes - before.affected_nodes);
      ps.reprobed = static_cast<double>(after.centers_reprobed - before.centers_reprobed);
      ps.carried = static_cast<double>(after.centers_carried - before.centers_carried);
      ps.exists = static_cast<double>(after.exists_calls - before.exists_calls);
      ps.reexpanded = static_cast<double>(after.rules_reexpanded - before.rules_reexpanded);
      ps.invalidated_frac =
          cached > 0 ? static_cast<double>(ds->memberships_invalidated) / cached : 0;
      ps.journal_bytes = static_cast<double>(ds->journal_bytes);
      passes.push_back(ps);
      last_batch.store(static_cast<int64_t>(b), std::memory_order_release);
    }
  });
  std::vector<double> query_ms;
  gpar::ServeStats reads;
  uint64_t reader_failed = 0, reader_attempted = 0;
  std::thread reader([&] {
    for (uint64_t i = 0; Tracer::NowNs() < end; ++i) {
      gpar::SessionRequest sr;
      const int64_t b = last_batch.load(std::memory_order_acquire);
      if (i % 2 == 1 && b >= 0 && !(*near)[b].centers.empty()) {
        const auto& c = (*near)[b].centers;
        for (size_t k = 0; k < std::min<size_t>(c.size(), 8); ++k) {
          sr.centers.push_back(c[(i / 2 + k) % c.size()]);
        }
      } else {
        sr.centers = (*reqs)[i % reqs->size()].centers;
      }
      const int64_t t0 = Tracer::NowNs();
      gpar::Result<gpar::SessionReply> r = gpar::Status::Internal("none");
      {
        Tracer::Scope span(tracer, "serve.Query",
                           ids.fetch_add(1, std::memory_order_relaxed));
        r = server->Query(sr);
      }
      ++reader_attempted;
      if (!r.ok()) {
        ++reader_failed;
        continue;
      }
      query_ms.push_back(Secs(t0, Tracer::NowNs()) * 1e3);
      reads.requests += 1;
      reads.cache_hits += r->stats.cache_hits;
      reads.cache_probes += r->stats.cache_probes;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));  // think time
    }
  });
  writer.join();
  reader.join();
  const double peak_mb = PeakRssMb();
  const size_t applied = passes.size();
  report.Count(applied + writer_failed + reader_attempted,
               writer_failed + reader_failed);
  if (writer_failed > 0 || applied == 0) {
    report.Check(false, "the writer applied no batch or a batch failed");
    return 1;
  }

  // ---- Checkpoint, a journaled tail, then recovery (off the clock except
  // for the Recover calls themselves). ----
  gpar::Status st;
  {
    Tracer::Scope span(tracer, "serve.Checkpoint");
    st = server->Checkpoint(checkpoint);
  }
  report.Check(st.ok(), "Checkpoint: " + st.ToString());
  for (size_t b = applied; b < applied + tail && st.ok(); ++b) {
    Tracer::Scope span(tracer, "serve.ApplyDelta");
    auto ds = server->ApplyDelta((*deltas)[b]);
    report.Check(ds.ok(), "tail ApplyDelta failed");
  }
  report.Count(tail);
  gpar::SessionRequest all;
  all.all_centers = true;
  auto live = server->Query(all);
  const std::vector<gpar::RuleRecord> live_rules = server->rules();
  const auto final_graph = server->graph_snapshot();
  server.reset();  // closes the journal, as a crash would
  report.Check(live.ok(), "live all-centers query failed");

  std::vector<double> recover_s;
  std::unique_ptr<gpar::RuleServer> recovered;
  gpar::JournalReplayStats replay;
  for (int i = 0; i < 5 && st.ok(); ++i) {
    recovered.reset();
    const int64_t t0 = Tracer::NowNs();
    gpar::Result<std::unique_ptr<gpar::RuleServer>> r =
        gpar::Status::Internal("none");
    {
      Tracer::Scope span(tracer, "serve.RuleServer::Recover");
      r = gpar::RuleServer::Recover(checkpoint, rules_snap, journal, ro, {},
                                    &replay);
    }
    recover_s.push_back(Secs(t0, Tracer::NowNs()));
    report.Count(1, r.ok() ? 0 : 1);
    if (!r.ok()) {
      report.Check(false, "Recover: " + r.status().ToString());
      return 1;
    }
    recovered = std::move(*r);
  }
  if (!st.ok()) return 1;

  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", peak_mb, "MB");
  report.Metric("main_ms", Median(Column(passes, &PassSample::delta_ms)), "ms");
  report.Metric("second_ms", Median(query_ms), "ms");
  report.Metric("third_ms", Median(recover_s) * 1e3, "ms");
  report.Note("main_ms", "delta_p50_ms: ApplyDelta submit to return, " +
                             std::to_string(applied) + " batches");
  report.Note("second_ms", "query_p50_ms: reader point query under writes, " +
                               std::to_string(query_ms.size()) + " samples");
  report.Note("third_ms", "recover_s: Recover from checkpoint + " +
                              std::to_string(replay.frames) +
                              " journal frames, median of 5");

  // ---- Correctness, off the clock. ----
  report.Check(replay.frames >= tail && !replay.tail_truncated,
               "recovery did not replay the journaled tail");
  {
    Tracer::Scope span(tracer, "maintain.EnableMaintenance");
    st = recovered->EnableMaintenance(mopt);
  }
  report.Check(st.ok(), "EnableMaintenance on the recovered server failed");
  if (st.ok() && live.ok()) {
    auto again = recovered->Query(all);
    report.Check(again.ok() && SameAnswer(*live, *again),
                 "the recovered server answers all-centers queries "
                 "differently from the live one");
    report.Check(recovered->rules() == live_rules,
                 "the recovered server serves different rules");
  }
  auto q = PredicateFromParams(p, *final_graph);
  report.Check(q.ok(), "predicate");
  if (!q.ok()) return 1;
  const int64_t r0 = Tracer::NowNs();
  gpar::Result<gpar::DmineResult> remined = gpar::Status::Internal("none");
  {
    Tracer::Scope span(tracer, "mine.Dmine");
    remined = gpar::Dmine(*final_graph, *q, mopt.mine);
  }
  const double remine_s = Secs(r0, Tracer::NowNs());
  report.Check(remined.ok(), "from-scratch Dmine failed");
  if (remined.ok()) {
    std::vector<gpar::RuleRecord> want;
    for (const auto& r : remined->topk) want.push_back({r->rule, r->supp, r->conf});
    report.Check(want == live_rules,
                 "the maintained top-k differs from a from-scratch Dmine on "
                 "the final graph");
  }

  // ---- Per-layer numbers. ----
  if (tracer.enabled()) {
    auto col = [&](double PassSample::*f) { return Median(Column(passes, f)); };
    const double reprobed = col(&PassSample::reprobed);
    const double carried = col(&PassSample::carried);
    const double lookups = static_cast<double>(reads.cache_hits + reads.cache_probes);
    report.Metric("serve.load_s", Median(load_s), "s");
    report.Metric("serve.cache_hit_ratio",
                  lookups > 0 ? static_cast<double>(reads.cache_hits) / lookups : 0,
                  "ratio");
    report.Metric("serve.probes_per_query",
                  reads.requests > 0 ? static_cast<double>(reads.cache_probes) /
                                           static_cast<double>(reads.requests)
                                     : 0,
                  "count");
    report.Metric("serve.service_ms", Median(query_ms), "ms");
    report.Metric("serve.invalidated_frac", col(&PassSample::invalidated_frac),
                  "ratio");
    report.Metric("serve.journal_bytes_per_delta", col(&PassSample::journal_bytes),
                  "B");
    report.Metric("maintain.pass_ms", col(&PassSample::pass_ms), "ms");
    report.Metric("maintain.affected_nodes", col(&PassSample::affected), "count");
    report.Metric("maintain.centers_reprobed", reprobed, "count");
    report.Metric("maintain.carry_ratio",
                  carried + reprobed > 0 ? carried / (carried + reprobed) : 0,
                  "ratio");
    report.Metric("maintain.exists_calls", col(&PassSample::exists), "count");
    report.Metric("match.exists_calls", col(&PassSample::exists), "count");
    report.Metric("maintain.rules_reexpanded", col(&PassSample::reexpanded),
                  "count");
    report.Metric("maintain.remine_s", remine_s, "s");
    report.Metric("rule.evidence_bytes", evidence_bytes, "B");

    // Recovery split into its two calls: snapshot load, then journal replay.
    std::vector<double> replay_rate, snap_s;
    for (int i = 0; i < 3; ++i) {
      recovered.reset();
      int64_t g0t = Tracer::NowNs();
      {
        Tracer::Scope span(tracer, "graph.ReadGraphSnapshotFile");
        auto g = gpar::ReadGraphSnapshotFile(checkpoint);
        report.Check(g.ok(), "checkpoint reload failed");
      }
      snap_s.push_back(Secs(g0t, Tracer::NowNs()));
      auto r = gpar::RuleServer::Load(checkpoint, rules_snap, ro);
      if (!r.ok()) {
        report.Check(false, "Load for replay failed");
        break;
      }
      gpar::JournalReplayStats rs;
      const int64_t a0 = Tracer::NowNs();
      {
        Tracer::Scope span(tracer, "serve.AttachJournal");
        st = (*r)->AttachJournal(journal, {}, &rs);
      }
      const double attach_s = Secs(a0, Tracer::NowNs());
      report.Check(st.ok(), "AttachJournal replay failed");
      replay_rate.push_back(attach_s > 0 ? static_cast<double>(rs.frames) / attach_s : 0);
    }
    report.Metric("graph.snapshot_load_s", Median(snap_s), "s");
    report.Metric("serve.replay_frames_per_s", Median(replay_rate), "1/s");

    std::vector<gpar::GraphDelta> replayed(
        deltas->begin(), deltas->begin() + static_cast<long>(std::min<size_t>(applied, 32)));
    ReplayDeltaLayers(tracer, *g0, replayed, mopt.mine.d, cfg.dir + "/replay.log",
                      report);
    std::vector<gpar::Gpar> sigma;
    for (const auto& r : live_rules) sigma.push_back(r.rule);
    auto cands = final_graph->nodes_with_label(q->x_label);
    if (!sigma.empty()) {
      ReplayExistsAt(tracer, *final_graph, sigma, {cands.begin(), cands.end()},
                     ro.sketch_hops, report);
    }
  }
  return 0;
}

}  // namespace perfbench
