#ifndef GPAR_SERVE_SHARDED_RULE_SERVER_H_
#define GPAR_SERVE_SHARDED_RULE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "parallel/thread_pool.h"
#include "rule/rule_snapshot.h"
#include "serve/durability.h"
#include "serve/rule_server.h"
#include "serve/serve_session.h"

namespace gpar {

/// Options for `ShardedRuleServer`.
struct ShardedRuleServerOptions {
  /// Number of shard servers. 1 is a valid (router + one shard)
  /// deployment, handy for A/B against a plain `RuleServer`.
  uint32_t num_shards = 2;
  /// Threads the router uses to scatter a request across shards and to
  /// ship deltas; 0 sizes it to `num_shards`.
  uint32_t router_threads = 0;
  /// Per-shard serving options (worker threads, cache size, ...).
  RuleServerOptions shard_options;
  /// Bounded retry of TRANSIENT shard errors (Unavailable / IoError) on
  /// the query and delta-ship paths; other codes propagate immediately.
  uint32_t max_shard_retries = 2;
  /// Backoff before the first retry, doubling per attempt. The retry loop
  /// never sleeps past a request's `deadline_seconds`.
  uint32_t retry_backoff_micros = 200;
  /// When a shard keeps failing: answer from the surviving shards with
  /// `SessionReply::degraded` set (owned-center supports of survivors stay
  /// exact) instead of failing the request; a shard that misses a delta is
  /// likewise left lagging — excluded from queries until a journal/pending
  /// resync catches it up — rather than failing the `ApplyDelta`. False
  /// restores strict all-or-nothing semantics.
  bool degrade_on_shard_failure = true;
};

/// A sharded serving deployment: the graph is split once at load with the
/// `PartitionGraph` fragment builder (d = the rule set's locality radius,
/// so G_d of every owned center lies inside its shard's `GraphView` slice)
/// into `num_shards` `RuleServer` shards, each answering for its owned
/// centers only. This thin router scatters a request by center ownership,
/// gathers the matches, and — for `all_centers` requests — assembles the
/// global supports and confidences from the per-shard partial sums, which
/// is exact because center ownership is disjoint (the paper's summable
/// local supports, Section 5.1).
///
/// Deltas (inserts and deletes) are applied to the shared parent CSR once,
/// then shipped to every shard as one serialized `GraphDelta` batch
/// (`common/binary_io` framing — v2 frames when the batch deletes) rather
/// than k graph snapshots; each shard re-derives its own invalidation and
/// view extension from the batch. Deletions shrink neighborhoods, so a
/// shard's view may become a strict superset of its owned centers' N_d
/// balls — still exact for view-restricted matching (see
/// `RuleServer::ApplyShardDelta`).
///
/// Thread-safety: as `ServeSession` — any number of concurrent `Query`
/// calls, concurrent with at most the internal serialization of
/// `ApplyDelta`. Shards swap snapshots independently, so a query racing a
/// delta may observe it on some shards and not others (per-shard snapshot
/// consistency; the delta becomes globally visible when `ApplyDelta`
/// returns).
class ShardedRuleServer : public DurableSession {
 public:
  /// Loads a snapshot pair (see `RuleServer::Load`) and partitions it.
  static Result<std::unique_ptr<ShardedRuleServer>> Load(
      const std::string& graph_snapshot_path,
      const std::string& rules_snapshot_path,
      const ShardedRuleServerOptions& options = {}) {
    return LoadSession<ShardedRuleServer>(graph_snapshot_path,
                                          rules_snapshot_path, options);
  }

  static Result<std::unique_ptr<ShardedRuleServer>> Create(
      Graph g, std::vector<RuleRecord> rules,
      const ShardedRuleServerOptions& options = {});

  /// Crash recovery: loads the snapshot pair, then attaches the journal at
  /// `journal_path` — replaying its valid frame prefix through the normal
  /// ship path, so the rebuilt deployment is result-identical to one that
  /// applied those deltas and never crashed.
  static Result<std::unique_ptr<ShardedRuleServer>> Recover(
      const std::string& graph_snapshot_path,
      const std::string& rules_snapshot_path,
      const std::string& journal_path,
      const ShardedRuleServerOptions& options = {},
      const DeltaJournalOptions& journal_options = {},
      JournalReplayStats* replay = nullptr) {
    return RecoverSession<ShardedRuleServer>(
        graph_snapshot_path, rules_snapshot_path, journal_path, options,
        journal_options, replay);
  }

  ShardedRuleServer(const ShardedRuleServer&) = delete;
  ShardedRuleServer& operator=(const ShardedRuleServer&) = delete;

  // ---- ServeSession ----

  Result<SessionReply> Query(const SessionRequest& request) override;
  Result<DeltaStats> ApplyDelta(const GraphDelta& delta) override;
  std::shared_ptr<const Graph> graph_snapshot() const override;
  std::vector<RuleRecord> rules() const override GPAR_EXCLUDES(graph_mu_);
  const std::vector<NodeId>& candidates() const override {
    return candidates_;
  }
  LabelId InternLabel(std::string_view name) override {
    return interner_->Intern(name);
  }
  /// Router-level lifetime stats (one request per `Query`; per-shard stats
  /// live on the shards — see `shard()`).
  ServeStats lifetime_stats() const override;

  // ---- Introspection ----

  uint32_t num_shards() const noexcept {
    return static_cast<uint32_t>(shards_.size());
  }
  const RuleServer& shard(uint32_t i) const noexcept { return *shards_[i]; }
  /// Shard owning `center`, or `num_shards()` when it is not a candidate.
  uint32_t OwnerOf(NodeId center) const;
  /// Sequence number stamped on the next shipped delta batch minus one.
  uint64_t delta_sequence() const GPAR_EXCLUDES(graph_mu_);
  /// Shards currently behind `delta_sequence()` (they answer no queries —
  /// the router degrades around them — until a resync catches them up).
  size_t lagging_shards() const GPAR_EXCLUDES(graph_mu_);

  /// Replays the frames a lagging shard missed — from the attached
  /// journal when possible, else from the in-memory pending tail — merged
  /// into one catch-up batch shipped with the current parent graph. Safe
  /// because a lagging shard serves nothing until it is current again, so
  /// it never exposes an intermediate state. Called automatically at the
  /// top of every `ApplyDelta`; public so operators (and tests) can heal a
  /// deployment without waiting for the next delta. Returns the first
  /// resync failure, with the still-lagging shards left lagging.
  Status ResyncLaggingShards() GPAR_EXCLUDES(writer_mu_);

  // ---- Incremental rule maintenance ----

  /// Switches the deployment into maintain-on-ApplyDelta mode: seeds a
  /// `RuleMaintainer` on the PARENT graph (shards only see fragment views)
  /// and serves its top-k from here on. Every later delta runs a
  /// maintenance pass after the ship and, when the top-k changed, pushes
  /// the refreshed set to every healthy shard (`RuleServer::UpdateRules`)
  /// and republishes the router's records. The maintained radius
  /// `options.mine.d` must not exceed the partition radius the fragments
  /// were cut for — deeper rules could not be matched shard-locally.
  /// A rule refresh is atomic per shard but briefly heterogeneous across
  /// shards, like deltas (per-shard snapshot consistency).
  Status EnableMaintenance(const MaintainOptions& options)
      GPAR_EXCLUDES(writer_mu_);

 private:
  explicit ShardedRuleServer(const ShardedRuleServerOptions& options);

  Result<SessionReply> QueryPoint(const SessionRequest& request,
                                  const std::vector<uint32_t>& selected);
  Result<SessionReply> QueryAll(const SessionRequest& request,
                                const std::vector<uint32_t>& selected);
  /// The body of `ApplyDelta`. `journal` is false on the replay path;
  /// `replay_sequence`, when nonzero, pins the batch's sequence to a
  /// journaled frame's instead of stamping the next one.
  Result<DeltaStats> ApplyDeltaLocked(const GraphDelta& delta, bool journal,
                                      uint64_t replay_sequence)
      GPAR_REQUIRES(writer_mu_);
  /// Replays through the normal ship path, pinned to the frame's sequence.
  Status ReplayLocked(const GraphDelta& frame) override
      GPAR_REQUIRES(writer_mu_);
  Status ResyncLaggingShardsLocked() GPAR_REQUIRES(writer_mu_);
  /// Runs `call` under the retry policy: transient failures back off
  /// (doubling, bounded by `deadline_seconds` on `timer` when positive)
  /// and retry up to `max_shard_retries` times, counting into `retries`.
  Status CallWithRetry(const std::function<Status()>& call,
                       double deadline_seconds, const Timer& timer,
                       uint64_t* retries) const;
  /// Pins the current record set (shared, immutable) for one request, so a
  /// racing maintenance refresh can never resize it mid-merge.
  std::shared_ptr<const std::vector<RuleRecord>> AcquireRecords() const
      GPAR_EXCLUDES(graph_mu_);
  /// Runs the maintenance pass for one applied batch and, when the top-k
  /// changed, publishes the refreshed set router-side and pushes it to
  /// every shard that acked the batch. Push failures leave those shards on
  /// the previous set (the next refresh retries — the compare is against
  /// the router's records) and are reported in `ds->rules_refreshed` only
  /// through the router's own publish.
  Status MaintainAfterShip(const Graph& old_graph,
                           std::shared_ptr<const Graph> new_graph,
                           const GraphDelta& wire, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_);
  /// When `refreshed` differs from the served set: publishes it router-side
  /// (setting `ds->rules_refreshed`), then pushes it to every shard.
  /// Returns the first push failure; a failed shard keeps its previous set.
  Status PublishRules(std::vector<RuleRecord> refreshed, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_);

  ShardedRuleServerOptions options_;
  std::shared_ptr<Interner> interner_;
  /// The served rule set, RCU-style: replaced wholesale by a maintenance
  /// refresh, never mutated in place.
  std::shared_ptr<const std::vector<RuleRecord>> records_
      GPAR_GUARDED_BY(graph_mu_);
  Predicate q_{};           ///< the rule set's predicate q(x, y)
  uint32_t partition_d_ = 0;  ///< radius the fragments were cut for
  std::vector<NodeId> candidates_;  ///< all candidate centers, sorted
  std::vector<uint32_t> owner_;     ///< parallel to candidates_
  /// Fixed for the server's lifetime (deltas mutate edges, never the node
  /// set), so point-query validation needn't take `graph_mu_`.
  NodeId num_nodes_ = 0;
  std::vector<std::unique_ptr<RuleServer>> shards_;
  /// Scatter/ship pool — deliberately separate from the shards' matching
  /// pools: a router task blocks on a shard's `Query`, and blocking waits
  /// must never share a pool with the tasks they wait for.
  std::unique_ptr<ThreadPool> router_pool_;

  mutable Mutex graph_mu_;
  std::shared_ptr<const Graph> graph_ GPAR_GUARDED_BY(graph_mu_);
  uint64_t delta_sequence_ GPAR_GUARDED_BY(graph_mu_) = 0;
  /// Per-shard last acknowledged batch sequence. A shard is healthy iff
  /// its entry equals `delta_sequence_`; queries route around the rest.
  std::vector<uint64_t> shard_acked_ GPAR_GUARDED_BY(graph_mu_);
  /// Recent shipped batches kept in memory for journal-free resync (and
  /// for frames a compaction already dropped from the journal). Pruned
  /// once every shard has acked; capped — a shard that lags past the cap
  /// with no journal coverage stays degraded until the process restarts.
  struct PendingFrame {
    uint64_t sequence = 0;
    GraphDelta delta;
  };
  std::deque<PendingFrame> pending_ GPAR_GUARDED_BY(writer_mu_);

  /// Lifetime counters are lock-free (relaxed atomics; latency in
  /// microseconds): the router adds one entry per request, and a shared
  /// mutex here would serialize otherwise shard-disjoint hot paths.
  struct AtomicStats {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_probes{0};
    std::atomic<uint64_t> centers_evaluated{0};
    std::atomic<uint64_t> shards_failed{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> latency_micros{0};
  };
  AtomicStats lifetime_;

  void RecordRequest(const ServeStats& stats);
};

}  // namespace gpar

#endif  // GPAR_SERVE_SHARDED_RULE_SERVER_H_
