#include "serve/sharded_rule_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "graph/partition.h"
#include "identify/eip.h"
#include "rule/metrics.h"
#include "serve/durability.h"

namespace gpar {

namespace {

void Accumulate(ServeStats* into, const ServeStats& s) {
  into->cache_hits += s.cache_hits;
  into->cache_probes += s.cache_probes;
  into->centers_evaluated += s.centers_evaluated;
}

/// The retry policy's transience test: Unavailable is transient by
/// definition, IoError covers injected torn writes and flaky storage.
/// Everything else (InvalidArgument, Corruption, ...) propagates at once.
bool IsTransient(const Status& st) {
  return st.code() == StatusCode::kUnavailable ||
         st.code() == StatusCode::kIoError;
}

}  // namespace

ShardedRuleServer::ShardedRuleServer(const ShardedRuleServerOptions& options)
    : options_(options) {}

Result<std::unique_ptr<ShardedRuleServer>> ShardedRuleServer::Create(
    Graph g, std::vector<RuleRecord> rules,
    const ShardedRuleServerOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  std::unique_ptr<ShardedRuleServer> server(new ShardedRuleServer(options));
  auto records =
      std::make_shared<const std::vector<RuleRecord>>(std::move(rules));
  std::vector<Gpar> sigma;
  sigma.reserve(records->size());
  for (const RuleRecord& r : *records) sigma.push_back(r.rule);
  GPAR_ASSIGN_OR_RETURN(SigmaInfo info, ValidateSigma(sigma));
  server->q_ = info.q;

  auto parent = std::make_shared<const Graph>(std::move(g));
  server->interner_ = parent->labels_ptr();
  {
    auto span = parent->nodes_with_label(info.q.x_label);
    server->candidates_.assign(span.begin(), span.end());
  }

  // Partition at the rule set's locality radius: every owned center's
  // G_d lives inside its fragment, so shard-local matching is exact.
  PartitionOptions popt;
  popt.num_fragments = options.num_shards;
  popt.d = std::max<uint32_t>(info.d, 1);
  server->partition_d_ = popt.d;
  GPAR_ASSIGN_OR_RETURN(
      Partitioning parts,
      PartitionGraph(*parent, server->candidates_, popt));
  server->owner_ = std::move(parts.owner_of_center);

  server->shards_.reserve(parts.fragments.size());
  for (Fragment& frag : parts.fragments) {
    GPAR_ASSIGN_OR_RETURN(
        std::unique_ptr<RuleServer> shard,
        RuleServer::CreateShard(parent, frag.view.nodes(),
                                std::move(frag.centers), *records,
                                options.shard_options));
    server->shards_.push_back(std::move(shard));
  }
  server->router_pool_ = std::make_unique<ThreadPool>(
      options.router_threads > 0 ? options.router_threads
                                 : options.num_shards);
  server->num_nodes_ = parent->num_nodes();
  {
    // Create runs single-threaded, but `graph_` is guarded and the lock is
    // uncontended — take it rather than poke an analysis hole.
    MutexLock lock(server->graph_mu_);
    server->graph_ = std::move(parent);
    server->records_ = std::move(records);
    server->shard_acked_.assign(server->shards_.size(), 0);
  }
  return server;
}

std::vector<RuleRecord> ShardedRuleServer::rules() const {
  return *AcquireRecords();
}

std::shared_ptr<const std::vector<RuleRecord>>
ShardedRuleServer::AcquireRecords() const {
  MutexLock lock(graph_mu_);
  return records_;
}

uint32_t ShardedRuleServer::OwnerOf(NodeId center) const {
  auto it = std::lower_bound(candidates_.begin(), candidates_.end(), center);
  if (it == candidates_.end() || *it != center) return num_shards();
  return owner_[static_cast<size_t>(it - candidates_.begin())];
}

uint64_t ShardedRuleServer::delta_sequence() const {
  MutexLock lock(graph_mu_);
  return delta_sequence_;
}

size_t ShardedRuleServer::lagging_shards() const {
  MutexLock lock(graph_mu_);
  size_t lagging = 0;
  for (uint64_t acked : shard_acked_) {
    if (acked != delta_sequence_) ++lagging;
  }
  return lagging;
}

std::shared_ptr<const Graph> ShardedRuleServer::graph_snapshot() const {
  MutexLock lock(graph_mu_);
  return graph_;
}

ServeStats ShardedRuleServer::lifetime_stats() const {
  // Relaxed: each counter is independently monotonic and the snapshot is
  // advisory — a read torn ACROSS counters is acceptable, no ordering with
  // any other memory is implied.
  const auto get = [](const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  ServeStats st;
  st.requests = get(lifetime_.requests);
  st.cache_hits = get(lifetime_.cache_hits);
  st.cache_probes = get(lifetime_.cache_probes);
  st.centers_evaluated = get(lifetime_.centers_evaluated);
  st.shards_failed = get(lifetime_.shards_failed);
  st.retries = get(lifetime_.retries);
  st.latency_seconds = static_cast<double>(get(lifetime_.latency_micros)) * 1e-6;
  return st;
}

void ShardedRuleServer::RecordRequest(const ServeStats& stats) {
  // Relaxed: pure monotonic counters on the router hot path; publishing
  // request results does not ride on these stores, so no release is needed.
  const auto add = [](std::atomic<uint64_t>& c, uint64_t v) {
    c.fetch_add(v, std::memory_order_relaxed);
  };
  add(lifetime_.requests, 1);
  add(lifetime_.cache_hits, stats.cache_hits);
  add(lifetime_.cache_probes, stats.cache_probes);
  add(lifetime_.centers_evaluated, stats.centers_evaluated);
  add(lifetime_.shards_failed, stats.shards_failed);
  add(lifetime_.retries, stats.retries);
  add(lifetime_.latency_micros,
      static_cast<uint64_t>(stats.latency_seconds * 1e6));
}

Result<SessionReply> ShardedRuleServer::Query(const SessionRequest& request) {
  const std::shared_ptr<const std::vector<RuleRecord>> records =
      AcquireRecords();
  GPAR_ASSIGN_OR_RETURN(
      std::vector<uint32_t> selected,
      NormalizeRuleSelection(request.rules, records->size()));
  if (request.deadline_seconds < 0) {
    return Status::InvalidArgument("deadline_seconds must be non-negative");
  }
  return request.all_centers ? QueryAll(request, selected)
                             : QueryPoint(request, selected);
}

Status ShardedRuleServer::CallWithRetry(const std::function<Status()>& call,
                                        double deadline_seconds,
                                        const Timer& timer,
                                        uint64_t* retries) const {
  Status st = call();
  for (uint32_t attempt = 0;
       !st.ok() && IsTransient(st) && attempt < options_.max_shard_retries;
       ++attempt) {
    const uint64_t backoff_micros =
        static_cast<uint64_t>(options_.retry_backoff_micros) << attempt;
    if (deadline_seconds > 0 &&
        timer.Seconds() + static_cast<double>(backoff_micros) * 1e-6 >
            deadline_seconds) {
      // Honest semantics: the budget bounds how long we keep TRYING; the
      // in-flight call that just failed was never cancelled.
      return Status::DeadlineExceeded(
          "retry budget exhausted after " + std::to_string(attempt) +
          " retries: " + st.message());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_micros));
    ++*retries;
    st = call();
  }
  return st;
}

Result<SessionReply> ShardedRuleServer::QueryPoint(
    const SessionRequest& request, const std::vector<uint32_t>& selected) {
  Timer timer;
  const NodeId n = num_nodes_;
  const uint32_t k = num_shards();

  // Scatter by center ownership; non-candidate centers match nothing and
  // never leave the router.
  struct ShardBatch {
    std::vector<NodeId> centers;
    std::vector<size_t> positions;  ///< indices into request.centers
  };
  std::vector<ShardBatch> batches(k);
  for (size_t i = 0; i < request.centers.size(); ++i) {
    const NodeId c = request.centers[i];
    if (c >= n) {
      return Status::InvalidArgument("center id " + std::to_string(c) +
                                     " out of range");
    }
    const uint32_t owner = OwnerOf(c);
    if (owner >= k) continue;
    batches[owner].centers.push_back(c);
    batches[owner].positions.push_back(i);
  }
  std::vector<uint32_t> involved;
  for (uint32_t s = 0; s < k; ++s) {
    if (!batches[s].centers.empty()) involved.push_back(s);
  }

  // Health snapshot: a shard behind the delta sequence would answer from
  // a stale graph, so it fails fast here and the reply degrades around it.
  std::vector<char> healthy(k, 1);
  {
    MutexLock lock(graph_mu_);
    for (uint32_t s = 0; s < k; ++s) {
      healthy[s] = shard_acked_[s] == delta_sequence_ ? 1 : 0;
    }
  }

  std::vector<Status> statuses(involved.size(), Status::OK());
  std::vector<SessionReply> shard_replies(involved.size());
  std::vector<uint64_t> retries(involved.size(), 0);
  auto run = [&](uint32_t idx) {
    const uint32_t s = involved[idx];
    if (healthy[s] == 0) {
      statuses[idx] = Status::Unavailable(
          "shard " + std::to_string(s) +
          " is lagging behind the delta sequence");
      return;
    }
    SessionRequest sub;
    sub.centers = std::move(batches[s].centers);
    sub.rules = selected;
    sub.require_consequent = request.require_consequent;
    statuses[idx] = CallWithRetry(
        [&]() {
          auto r = shards_[s]->Query(sub);
          if (!r.ok()) return r.status();
          shard_replies[idx] = std::move(r).value();
          return Status::OK();
        },
        request.deadline_seconds, timer, &retries[idx]);
  };
  // Single-shard requests (the common point-lookup case under center
  // affinity) skip the router pool entirely and run on the caller.
  if (involved.size() == 1) {
    run(0);
  } else if (!involved.empty()) {
    ParallelFor(*router_pool_, static_cast<uint32_t>(involved.size()), run);
  }

  SessionReply reply;
  reply.matched.assign(request.centers.size(), {});
  ServeStats stats;
  stats.requests = 1;
  for (uint64_t r : retries) stats.retries += r;
  for (size_t bi = 0; bi < involved.size(); ++bi) {
    if (!statuses[bi].ok()) {
      if (!options_.degrade_on_shard_failure) return statuses[bi];
      // Degrade: this shard's centers keep their empty matched rows —
      // exactly what the failed_shards marker tells the caller to expect.
      reply.degraded = true;
      reply.failed_shards.push_back(involved[bi]);
      ++stats.shards_failed;
      continue;
    }
    const ShardBatch& batch = batches[involved[bi]];
    SessionReply& sub = shard_replies[bi];
    for (size_t j = 0; j < batch.positions.size(); ++j) {
      reply.matched[batch.positions[j]] = std::move(sub.matched[j]);
    }
    Accumulate(&stats, sub.stats);
  }
  for (size_t i = 0; i < request.centers.size(); ++i) {
    if (!reply.matched[i].empty()) {
      reply.entities.push_back(request.centers[i]);
    }
  }
  std::sort(reply.entities.begin(), reply.entities.end());
  reply.entities.erase(
      std::unique(reply.entities.begin(), reply.entities.end()),
      reply.entities.end());

  stats.latency_seconds = timer.Seconds();
  RecordRequest(stats);
  reply.stats = stats;
  return reply;
}

Result<SessionReply> ShardedRuleServer::QueryAll(
    const SessionRequest& request, const std::vector<uint32_t>& selected) {
  Timer timer;
  if (request.eta <= 0) {
    return Status::InvalidArgument("eta must be positive");
  }
  const uint32_t k = num_shards();

  SessionRequest sub;
  sub.all_centers = true;
  sub.rules = selected;
  sub.eta = request.eta;
  sub.require_consequent = request.require_consequent;

  // Health snapshot, as in QueryPoint: lagging shards fail fast.
  std::vector<char> healthy(k, 1);
  {
    MutexLock lock(graph_mu_);
    for (uint32_t s = 0; s < k; ++s) {
      healthy[s] = shard_acked_[s] == delta_sequence_ ? 1 : 0;
    }
  }

  std::vector<Status> statuses(k, Status::OK());
  std::vector<SessionReply> shard_replies(k);
  std::vector<uint64_t> retries(k, 0);
  auto run = [&](uint32_t s) {
    if (healthy[s] == 0) {
      statuses[s] = Status::Unavailable(
          "shard " + std::to_string(s) +
          " is lagging behind the delta sequence");
      return;
    }
    statuses[s] = CallWithRetry(
        [&]() {
          auto r = shards_[s]->Query(sub);
          if (!r.ok()) return r.status();
          shard_replies[s] = std::move(r).value();
          return Status::OK();
        },
        request.deadline_seconds, timer, &retries[s]);
  };
  if (k == 1) {
    run(0);
  } else {
    ParallelFor(*router_pool_, k, run);
  }

  // Gather: center ownership is disjoint, so the per-shard partial
  // supports sum to the global ones; confidences must be computed HERE,
  // from the global sums — shard-local confidences are meaningless.
  // Failed shards contribute nothing: their owned centers keep empty
  // matched rows and the sums cover the SURVIVING shards only (exact for
  // survivors' centers, a lower bound globally).
  SessionReply reply;
  reply.matched.assign(candidates_.size(), {});
  reply.rule_evals.assign(AcquireRecords()->size(), {});
  ServeStats stats;
  stats.requests = 1;
  for (uint64_t r : retries) stats.retries += r;
  for (uint32_t s = 0; s < k; ++s) {
    if (!statuses[s].ok()) {
      if (!options_.degrade_on_shard_failure) return statuses[s];
      reply.degraded = true;
      reply.failed_shards.push_back(s);
      ++stats.shards_failed;
      continue;
    }
    SessionReply& sub_reply = shard_replies[s];
    const std::vector<NodeId>& owned = shards_[s]->candidates();
    for (size_t j = 0; j < owned.size(); ++j) {
      auto it =
          std::lower_bound(candidates_.begin(), candidates_.end(), owned[j]);
      reply.matched[static_cast<size_t>(it - candidates_.begin())] =
          std::move(sub_reply.matched[j]);
    }
    reply.supp_q += sub_reply.supp_q;
    reply.supp_qbar += sub_reply.supp_qbar;
    for (uint32_t ri : selected) {
      // Bounds guards: a maintenance refresh racing this request can leave
      // router and shards briefly on differently sized rule sets (the
      // per-shard snapshot consistency caveat) — never index across the
      // mismatch.
      if (ri >= reply.rule_evals.size() ||
          ri >= sub_reply.rule_evals.size()) {
        continue;
      }
      reply.rule_evals[ri].supp_r += sub_reply.rule_evals[ri].supp_r;
      reply.rule_evals[ri].supp_qqbar += sub_reply.rule_evals[ri].supp_qqbar;
    }
    Accumulate(&stats, sub_reply.stats);
  }
  std::vector<char> qualified(reply.rule_evals.size(), 0);
  for (uint32_t ri : selected) {
    if (ri >= reply.rule_evals.size()) continue;  // refresh race, as above
    EipRuleEval& ev = reply.rule_evals[ri];
    ev.conf = BayesFactorConf(ev.supp_r, reply.supp_qbar, ev.supp_qqbar,
                              reply.supp_q);
    if (ev.conf >= request.eta) qualified[ri] = 1;
  }
  for (size_t i = 0; i < candidates_.size(); ++i) {
    for (uint32_t ri : reply.matched[i]) {
      if (ri < qualified.size() && qualified[ri] != 0) {
        reply.entities.push_back(candidates_[i]);
        break;
      }
    }
  }

  stats.latency_seconds = timer.Seconds();
  RecordRequest(stats);
  reply.stats = stats;
  return reply;
}

Result<DeltaStats> ShardedRuleServer::ApplyDelta(const GraphDelta& delta) {
  MutexLock writer(writer_mu_);
  // Heal first: a lagging shard must not receive this batch on top of a
  // gap (it would miss the intermediate invalidations). Shards that are
  // still lagging afterwards are excluded from the ship below and stay
  // degraded.
  Status resync = ResyncLaggingShardsLocked();
  (void)resync;
  return ApplyDeltaLocked(delta, /*journal=*/true, /*replay_sequence=*/0);
}

Result<DeltaStats> ShardedRuleServer::ApplyDeltaLocked(
    const GraphDelta& delta, bool journal, uint64_t replay_sequence) {
  std::shared_ptr<const Graph> cur;
  {
    MutexLock lock(graph_mu_);
    cur = graph_;
  }
  Timer timer;
  DeltaStats ds;
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch,
                        PatchForSession(*cur, delta, interner_.get(), &ds));
  if (patch.applied.empty() && patch.applied_deletes.empty()) {
    if (replay_sequence != 0) {
      // Replayed no-op (the checkpoint floor marker): nothing to ship,
      // but the sequence must advance — and shards that were current stay
      // current over an empty frame.
      MutexLock lock(graph_mu_);
      for (uint64_t& acked : shard_acked_) {
        if (acked == delta_sequence_) acked = replay_sequence;
      }
      delta_sequence_ = replay_sequence;
      ds.sequence = replay_sequence;
    }
    ds.seconds = timer.Seconds();
    return ds;
  }

  // Patch the shared parent CSR once, then ship one serialized batch of
  // the applied mutations to every shard — bytes on the wire instead of k
  // graph snapshots. Batches with deletes go out as v2 frames; pure-insert
  // batches keep the v1 framing.
  auto next = std::make_shared<const Graph>(std::move(patch.graph));
  uint64_t sequence = replay_sequence;
  if (sequence == 0) {
    MutexLock lock(graph_mu_);
    sequence = delta_sequence_ + 1;
  }
  GraphDelta wire =
      AppliedFrame(sequence, std::move(patch.applied),
                   std::move(patch.applied_deletes), *interner_);
  if (journal) {
    // Append-before-ship: on an append failure nothing has advanced and
    // nothing was shipped, so the deployment is exactly as before.
    GPAR_RETURN_NOT_OK(AppendLocked(wire, &ds));
  }
  // The crash window recovery must close: the frame is journaled but not
  // yet shipped or published. Replay applies it.
  GPAR_FAILPOINT("serve.publish");

  const uint32_t k = num_shards();
  const std::string bytes = wire.Serialize();
  std::vector<char> ship_to(k, 1);
  {
    MutexLock lock(graph_mu_);
    for (uint32_t s = 0; s < k; ++s) {
      ship_to[s] = shard_acked_[s] + 1 == wire.sequence ? 1 : 0;
    }
  }
  std::vector<Status> statuses(k, Status::OK());
  std::vector<DeltaStats> shard_stats(k);
  std::vector<uint64_t> retries(k, 0);
  auto ship = [&](uint32_t s) {
    if (ship_to[s] == 0) return;
    statuses[s] = CallWithRetry(
        [&]() {
          auto r = shards_[s]->ApplyShardDelta(next, bytes);
          if (!r.ok()) return r.status();
          shard_stats[s] = std::move(r).value();
          return Status::OK();
        },
        /*deadline_seconds=*/0, timer, &retries[s]);
  };
  if (k == 1) {
    ship(0);
  } else {
    ParallelFor(*router_pool_, k, ship);
  }

  uint64_t total_retries = 0;
  for (uint64_t r : retries) total_retries += r;
  // Relaxed: pure monotonic counter off the query path, no ordering with
  // other memory implied.
  lifetime_.retries.fetch_add(total_retries, std::memory_order_relaxed);

  if (!options_.degrade_on_shard_failure) {
    for (uint32_t s = 0; s < k; ++s) {
      // Strict mode: propagate the first ship failure without publishing.
      // (A journaled frame stays journaled — the journal is the source of
      // truth, and recovery replays it.)
      if (ship_to[s] != 0) GPAR_RETURN_NOT_OK(statuses[s]);
    }
  }

  {
    MutexLock lock(graph_mu_);
    graph_ = next;
    delta_sequence_ = wire.sequence;
    for (uint32_t s = 0; s < k; ++s) {
      if (ship_to[s] != 0 && statuses[s].ok()) {
        shard_acked_[s] = wire.sequence;
      }
    }
    for (uint64_t acked : shard_acked_) {
      if (acked != wire.sequence) ++ds.shards_lagging;
    }
  }
  ds.sequence = wire.sequence;

  if (maintainer_ != nullptr) {
    // Maintain-on-ApplyDelta: the pass runs on the parent graph after the
    // ship; a changed top-k is pushed to the shards and republished
    // router-side. Push failures degrade (the affected shard keeps the
    // previous set until the next refresh) unless strict mode is on.
    Status maintained = MaintainAfterShip(*cur, next, wire, &ds);
    if (!maintained.ok() && !options_.degrade_on_shard_failure) {
      return maintained;
    }
  }

  // Keep the frame for pending-tail resync until every shard acked it,
  // bounded: a shard lagging past the cap resyncs from the journal or not
  // at all.
  pending_.push_back(PendingFrame{wire.sequence, std::move(wire)});
  {
    MutexLock lock(graph_mu_);
    uint64_t min_acked = delta_sequence_;
    for (uint64_t acked : shard_acked_) min_acked = std::min(min_acked, acked);
    while (!pending_.empty() && pending_.front().sequence <= min_acked) {
      pending_.pop_front();
    }
  }
  constexpr size_t kMaxPendingFrames = 4096;
  while (pending_.size() > kMaxPendingFrames) pending_.pop_front();

  for (uint32_t s = 0; s < k; ++s) {
    if (ship_to[s] == 0 || !statuses[s].ok()) continue;
    const DeltaStats& st = shard_stats[s];
    ds.memberships_invalidated += st.memberships_invalidated;
    ds.qclass_invalidated += st.qclass_invalidated;
    ds.sketches_refreshed += st.sketches_refreshed;
    ds.members_extended += st.members_extended;
    ds.wire_bytes += st.wire_bytes;
  }
  ds.seconds = timer.Seconds();
  return ds;
}

Status ShardedRuleServer::MaintainAfterShip(
    const Graph& old_graph, std::shared_ptr<const Graph> new_graph,
    const GraphDelta& wire, DeltaStats* ds) {
  const DeltaFrontier frontier =
      DeltaFrontier::Compute(old_graph, *new_graph, wire.inserts,
                             wire.deletes, maintainer_->options().mine.d);
  GPAR_ASSIGN_OR_RETURN(const MaintainStats ms,
                        maintainer_->Advance(std::move(new_graph), frontier));
  (void)ms;  // folded into maintain_stats()
  return PublishRules(maintainer_->TopKRecords(), ds);
}

Status ShardedRuleServer::PublishRules(std::vector<RuleRecord> refreshed,
                                       DeltaStats* ds) {
  {
    MutexLock lock(graph_mu_);
    if (refreshed == *records_) return Status::OK();
  }
  // Publish router-side FIRST: selections normalize against the router's
  // set, and a shard still on the old set rejects out-of-range indices
  // (the merge also bounds-checks) instead of answering from the wrong
  // rule.
  auto shared =
      std::make_shared<const std::vector<RuleRecord>>(std::move(refreshed));
  {
    MutexLock lock(graph_mu_);
    records_ = shared;
  }
  ds->rules_refreshed = 1;
  Status first_failure = Status::OK();
  for (auto& shard : shards_) {
    Status st = shard->UpdateRules(*shared);
    if (!st.ok() && first_failure.ok()) first_failure = std::move(st);
  }
  return first_failure;
}

Status ShardedRuleServer::EnableMaintenance(const MaintainOptions& options) {
  MutexLock writer(writer_mu_);
  if (std::max<uint32_t>(options.mine.d, 1) > partition_d_) {
    return Status::InvalidArgument(
        "maintained rule radius " + std::to_string(options.mine.d) +
        " exceeds the partition radius " + std::to_string(partition_d_) +
        " the fragments were cut for; reload the deployment with the "
        "deeper radius instead");
  }
  std::shared_ptr<const Graph> g;
  {
    MutexLock lock(graph_mu_);
    g = graph_;
  }
  GPAR_RETURN_NOT_OK(SeedMaintainerLocked(std::move(g), q_, options));
  DeltaStats ds;
  return PublishRules(maintainer_->TopKRecords(), &ds);
}

Status ShardedRuleServer::ResyncLaggingShards() {
  MutexLock writer(writer_mu_);
  return ResyncLaggingShardsLocked();
}

Status ShardedRuleServer::ResyncLaggingShardsLocked() {
  const uint32_t k = num_shards();
  uint64_t cur = 0;
  std::vector<uint64_t> acked;
  std::shared_ptr<const Graph> g;
  {
    MutexLock lock(graph_mu_);
    cur = delta_sequence_;
    acked = shard_acked_;
    g = graph_;
  }
  Status first_failure = Status::OK();
  auto note = [&first_failure](Status st) {
    if (first_failure.ok()) first_failure = std::move(st);
  };
  for (uint32_t s = 0; s < k; ++s) {
    if (acked[s] >= cur) continue;
    // Collect the frames this shard missed — exactly (acked, cur], every
    // sequence accounted for. The journal (durable, survives restarts) is
    // preferred; the in-memory pending tail covers frames a compaction
    // already dropped. Floor markers are empty stand-ins for compacted
    // frames, not the frames themselves, so they never count as coverage.
    const uint64_t needed = cur - acked[s];
    std::vector<const GraphDelta*> missed;
    std::vector<GraphDelta> journal_frames;
    auto covered = [&]() {
      return missed.size() == needed &&
             missed.front()->sequence == acked[s] + 1 &&
             missed.back()->sequence == cur;
    };
    if (journal_ != nullptr) {
      auto all = DeltaJournal::ReadAll(journal_->path());
      if (all.ok()) {
        journal_frames = std::move(all).value();
        for (const GraphDelta& f : journal_frames) {
          if (f.sequence > acked[s] && f.sequence <= cur &&
              !(f.inserts.empty() && f.deletes.empty())) {
            missed.push_back(&f);
          }
        }
      }
    }
    if (missed.empty() || !covered()) {
      missed.clear();
      for (const PendingFrame& f : pending_) {
        if (f.sequence > acked[s] && f.sequence <= cur) {
          missed.push_back(&f.delta);
        }
      }
    }
    if (missed.empty() || !covered()) {
      note(Status::Unavailable(
          "shard " + std::to_string(s) + " cannot be resynced: frames (" +
          std::to_string(acked[s]) + ", " + std::to_string(cur) +
          "] are no longer available"));
      continue;
    }
    // One merged catch-up batch at the current sequence, shipped with the
    // current parent graph. Safe: the shard served nothing while lagging,
    // so no intermediate state was ever observable, and the endpoint
    // union (an edge inserted then deleted in the window contributes
    // both) is exactly what its invalidation walk needs.
    GraphDelta merged;
    merged.sequence = cur;
    for (const GraphDelta* f : missed) {
      merged.inserts.insert(merged.inserts.end(), f->inserts.begin(),
                            f->inserts.end());
      merged.deletes.insert(merged.deletes.end(), f->deletes.begin(),
                            f->deletes.end());
    }
    CollectLabelDefs(*interner_, &merged);
    auto r = shards_[s]->ApplyShardDelta(g, merged.Serialize());
    if (r.ok()) {
      MutexLock lock(graph_mu_);
      shard_acked_[s] = std::max(shard_acked_[s], cur);
    } else {
      note(r.status());
    }
  }
  return first_failure;
}

Status ShardedRuleServer::ReplayLocked(const GraphDelta& frame) {
  return ApplyDeltaLocked(frame, /*journal=*/false, frame.sequence).status();
}

}  // namespace gpar
