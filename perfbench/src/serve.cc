// The `serve` workload: independent users sending read-only point lookups
// (32 Zipf(1)-popular centers each) to a 2-shard ShardedRuleServer over a
// GPlus-like graph with ~12 generated majored_in rules. The per-shard
// cache holds fewer memberships than the requests touch, so hits, misses
// and evictions all occur.
//
// Window: 10% warm-up (closed loop, not reported), 60% closed loop with
// two clients (capacity, and latency at capacity), 30% open loop at the
// schedule's fixed rate: a generator thread releases each request at its
// due time into a queue that two client threads drain, and latency runs
// from the due time. The open loop's numbers are per-layer only: at this
// rate the server's threads idle between requests, and on a shared virtual
// machine their wake-up latency moved the open-loop percentiles by 2-4x
// between identical runs.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.h"
#include "graph/graph_snapshot.h"
#include "layers.h"
#include "serve/rule_server.h"
#include "serve/sharded_rule_server.h"

namespace perfbench {

namespace {

/// Every this-many-th reply is kept for the off-clock answer check.
constexpr uint64_t kCheckEvery = 16;

struct Sample {
  uint64_t request = 0;  ///< index into the schedule
  std::vector<std::vector<uint32_t>> matched;
};

/// What the client threads observed, merged after they join.
struct Observed {
  std::vector<double> latency_ms, service_ms, queue_ms, late_ms;
  std::vector<Sample> samples;
  gpar::ServeStats stats;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;

  void Merge(Observed&& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(latency_ms, o.latency_ms);
    cat(service_ms, o.service_ms);
    cat(queue_ms, o.queue_ms);
    cat(late_ms, o.late_ms);
    for (auto& s : o.samples) samples.push_back(std::move(s));
    stats.requests += o.stats.requests;
    stats.cache_hits += o.stats.cache_hits;
    stats.cache_probes += o.stats.cache_probes;
    stats.retries += o.stats.retries;
    stats.shards_failed += o.stats.shards_failed;
    attempted += o.attempted;
    failed += o.failed;
    degraded += o.degraded;
  }
};

/// Issues schedule entry `index` and records it. `due_ns` < 0: closed loop
/// (latency from the send time).
void Issue(gpar::ServeSession& server, Tracer& tracer,
           const std::vector<Request>& reqs, uint64_t index, int64_t due_ns,
           std::atomic<uint64_t>& ids, Observed& obs) {
  const Request& r = reqs[index % reqs.size()];
  gpar::SessionRequest sr;
  sr.centers = r.centers;
  const uint64_t id = ids.fetch_add(1, std::memory_order_relaxed);
  const int64_t start = Tracer::NowNs();
  const int64_t from = due_ns >= 0 ? due_ns : start;
  gpar::Result<gpar::SessionReply> reply = gpar::Status::Internal("none");
  {
    Tracer::Scope envelope(tracer, "client.request", id, from);
    Tracer::Scope span(tracer, "serve.Query");
    reply = server.Query(sr);
  }
  const int64_t end = Tracer::NowNs();
  ++obs.attempted;
  if (!reply.ok() || reply->degraded) {
    ++obs.failed;
    obs.degraded += reply.ok() ? 1 : 0;
    return;
  }
  obs.latency_ms.push_back(Secs(from, end) * 1e3);
  obs.service_ms.push_back(Secs(start, end) * 1e3);
  obs.queue_ms.push_back(Secs(from, start) * 1e3);
  obs.stats.requests += 1;
  obs.stats.cache_hits += reply->stats.cache_hits;
  obs.stats.cache_probes += reply->stats.cache_probes;
  obs.stats.retries += reply->stats.retries;
  obs.stats.shards_failed += reply->stats.shards_failed;
  if (index % kCheckEvery == 0) {
    obs.samples.push_back({index % reqs.size(), std::move(reply->matched)});
  }
}

/// `clients` threads issuing back-to-back requests from schedule index
/// `first` on, until `end_ns`.
Observed ClosedLoop(gpar::ServeSession& server, Tracer& tracer,
                    const std::vector<Request>& reqs, uint32_t clients,
                    uint64_t first, int64_t end_ns,
                    std::atomic<uint64_t>& ids) {
  std::atomic<uint64_t> cursor{first};
  std::vector<Observed> per(clients);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Tracer::NowNs() < end_ns) {
        Issue(server, tracer, reqs, cursor.fetch_add(1), -1, ids, per[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  Observed all;
  for (auto& o : per) all.Merge(std::move(o));
  return all;
}

/// Open loop: a generator releases schedule entry j at start + due_us[j]
/// until `end_ns`; `clients` threads serve the queue. Requests still
/// queued 5 s after the window are dropped and count as failed.
Observed OpenLoop(gpar::ServeSession& server, Tracer& tracer,
                  const std::vector<Request>& reqs, uint32_t clients,
                  int64_t start_ns, int64_t end_ns,
                  std::atomic<uint64_t>& ids) {
  struct Item {
    uint64_t index;
    int64_t due_ns;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;  // guarded by mu
  bool done = false;       // guarded by mu
  Observed gen;
  std::vector<Observed> per(clients);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        Item item{};
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          item = queue.front();
          queue.pop_front();
        }
        if (Tracer::NowNs() > end_ns + 5'000'000'000LL) {
          ++per[c].attempted;
          ++per[c].failed;
          continue;
        }
        Issue(server, tracer, reqs, item.index, item.due_ns, ids, per[c]);
      }
    });
  }
  for (uint64_t j = 0; j < reqs.size(); ++j) {
    const int64_t due =
        start_ns + static_cast<int64_t>(reqs[j].due_us) * 1000;
    if (due >= end_ns) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    gen.late_ms.push_back(Secs(due, Tracer::NowNs()) * 1e3);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({j, due});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  for (auto& o : per) gen.Merge(std::move(o));
  return gen;
}

}  // namespace

int RunServe(const RunConfig& cfg, const Params& p, Tracer& tracer,
             Report& report) {
  const std::string graph_snap = cfg.dir + "/graph.snap";
  const std::string rules_snap = cfg.dir + "/rules.snap";
  gpar::ShardedRuleServerOptions so;
  so.num_shards = static_cast<uint32_t>(p.U64("shards"));
  so.router_threads = so.num_shards;
  so.shard_options.num_workers = static_cast<uint32_t>(p.U64("shard_workers"));
  so.shard_options.cache_capacity = p.U64("cache_capacity");
  const uint32_t clients = static_cast<uint32_t>(p.U64("clients"));

  // ---- Set-up: load the sharded server from the snapshot pair, then one
  // all-centers query per client thread, concurrently. Shard servers build
  // their matchers' sketches lazily, per matching context; without this the
  // window would time that lazy set-up instead of serving. ----
  const int64_t s0 = Tracer::NowNs();
  gpar::Result<std::unique_ptr<gpar::ShardedRuleServer>> loaded =
      gpar::Status::Internal("none");
  {
    Tracer::Scope span(tracer, "serve.ShardedRuleServer::Load");
    loaded = gpar::ShardedRuleServer::Load(graph_snap, rules_snap, so);
  }
  const double load_s = Secs(s0, Tracer::NowNs());
  if (!loaded.ok()) {
    report.Check(false, "ShardedRuleServer::Load: " + loaded.status().ToString());
    return 1;
  }
  std::unique_ptr<gpar::ShardedRuleServer> server = std::move(*loaded);
  {
    std::atomic<uint64_t> warm_failed{0};
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        gpar::SessionRequest all;
        all.all_centers = true;
        Tracer::Scope span(tracer, "serve.Query");
        if (!server->Query(all).ok()) warm_failed.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    if (warm_failed.load() != 0) {
      report.Check(false, "warm-up all-centers query failed");
      return 1;
    }
  }
  const double setup_s = Secs(s0, Tracer::NowNs());
  auto reqs = ReadRequests(cfg.dir + "/requests.bin",
                           server->graph_snapshot()->num_nodes());
  if (!reqs.ok() || reqs->empty()) {
    report.Check(false, "requests: " + reqs.status().ToString());
    return 1;
  }

  // ---- Measurement window. ----
  std::atomic<uint64_t> ids{1};
  const int64_t t0 = Tracer::NowNs();
  const auto at = [t0, &cfg](double frac) {
    return t0 + static_cast<int64_t>(frac * cfg.seconds * 1e9);
  };
  // The closed loops draw from the second half of the schedule; the open
  // loop replays it from the start (Zipf draws are independent, so every
  // stretch of the schedule has the same popularity).
  const uint64_t warm_first = reqs->size() / 2;
  ClosedLoop(*server, tracer, *reqs, clients, warm_first, at(0.1), ids);
  const int64_t closed_start = Tracer::NowNs();
  Observed closed = ClosedLoop(*server, tracer, *reqs, clients,
                               warm_first + reqs->size() / 4, at(0.7), ids);
  const double closed_s = Secs(closed_start, Tracer::NowNs());
  Observed open =
      OpenLoop(*server, tracer, *reqs, clients, at(0.7), at(1.0), ids);
  const double peak_mb = PeakRssMb();

  report.Count(closed.attempted + open.attempted, closed.failed + open.failed);
  const double qps = static_cast<double>(closed.stats.requests) / closed_s;
  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", peak_mb, "MB");
  report.Metric("main_ms", Quantile(closed.latency_ms, 0.5), "ms");
  report.Metric("second_ms", Quantile(closed.latency_ms, 0.9), "ms");
  report.Metric("third_ms", qps > 0 ? 1e3 / qps : 0, "ms");
  report.Note("main_ms", "query_p50_ms: point-query latency at capacity, " +
                             std::to_string(clients) + " clients, " +
                             std::to_string(closed.latency_ms.size()) +
                             " samples");
  report.Note("second_ms", "query_p90_ms: the same samples' 90th percentile");
  report.Note("third_ms", "1000 / query_qps: closed loop, " +
                              std::to_string(clients) + " clients, " +
                              std::to_string(qps) + " req/s");

  // ---- Correctness, off the clock: the sampled replies against a single
  // RuleServer (no router, no shards, whole-graph matching) that answers
  // each sampled request once, so nothing comes from its cache. ----
  {
    gpar::RuleServerOptions ro;
    ro.num_workers = 2;
    ro.precompute_sketches = false;
    auto ref = gpar::RuleServer::Load(graph_snap, rules_snap, ro);
    report.Check(ref.ok(), "reference RuleServer::Load failed");
    size_t checked = 0, bad = 0;
    for (const Observed* o : {&closed, &open}) {
      for (const Sample& s : o->samples) {
        if (!ref.ok()) break;
        gpar::SessionRequest sr;
        sr.centers = (*reqs)[s.request].centers;
        auto want = (*ref)->Query(sr);
        ++checked;
        bad += !want.ok() || want->matched != s.matched;
      }
    }
    report.Check(checked > 0 && bad == 0,
                 std::to_string(bad) + " of " + std::to_string(checked) +
                     " sampled point replies differ from the reference");
  }

  // ---- Per-layer numbers. ----
  if (tracer.enabled()) {
    const gpar::ServeStats& st = closed.stats;
    const double lookups = static_cast<double>(st.cache_hits + st.cache_probes);
    report.Metric("serve.load_s", load_s, "s");
    report.Metric("serve.cache_hit_ratio",
                  lookups > 0 ? static_cast<double>(st.cache_hits) / lookups : 0,
                  "ratio");
    report.Metric("serve.probes_per_query",
                  st.requests > 0 ? static_cast<double>(st.cache_probes) /
                                        static_cast<double>(st.requests)
                                  : 0,
                  "count");
    report.Metric("serve.service_ms", Median(open.service_ms), "ms");
    report.Metric("serve.queue_ms", Median(open.queue_ms), "ms");
    report.Metric("serve.late_ms", Quantile(open.late_ms, 0.99), "ms");
    report.Metric("serve.open_p50_ms", Quantile(open.latency_ms, 0.5), "ms");
    report.Metric("serve.open_p90_ms", Quantile(open.latency_ms, 0.9), "ms");
    report.Metric("serve.open_p99_ms", Quantile(open.latency_ms, 0.99), "ms");
    report.Metric("serve.closed_p99_ms", Quantile(closed.latency_ms, 0.99), "ms");
    report.Metric("serve.latency_samples",
                  static_cast<double>(open.latency_ms.size()), "count");
    report.Metric("serve.retries",
                  static_cast<double>(closed.stats.retries + open.stats.retries), "count");
    report.Metric("serve.degraded",
                  static_cast<double>(closed.degraded + open.degraded), "count");

    std::vector<double> load_s;
    for (int i = 0; i < 3; ++i) {
      int64_t l0 = Tracer::NowNs();
      Tracer::Scope span(tracer, "graph.ReadGraphSnapshotFile");
      auto g = gpar::ReadGraphSnapshotFile(graph_snap);
      load_s.push_back(Secs(l0, Tracer::NowNs()));
      report.Check(g.ok(), "graph snapshot reload failed");
    }
    report.Metric("graph.snapshot_load_s", Median(load_s), "s");
    auto g = server->graph_snapshot();
    const auto& cands = server->candidates();
    std::vector<gpar::Gpar> sigma;
    uint32_t d = 1;
    for (const auto& r : server->rules()) {
      sigma.push_back(r.rule);
      d = std::max(d, r.rule.eval_radius());
    }
    ReplayPartition(tracer, *g, cands, d, so.num_shards, report);
    ReplayExistsAt(tracer, *g, sigma, cands, so.shard_options.sketch_hops,
                   report);
  }
  return 0;
}

}  // namespace perfbench
