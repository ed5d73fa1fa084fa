#ifndef GPAR_SERVE_DURABILITY_H_
#define GPAR_SERVE_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "maintain/rule_maintainer.h"
#include "rule/rule_snapshot.h"
#include "serve/delta_journal.h"
#include "serve/serve_session.h"

namespace gpar {

// The durability protocol shared by `RuleServer` and `ShardedRuleServer`:
// snapshot-pair load, recovery = load + attach, attach = journal replay then
// open, append-before-publish of the applied frame, and checkpoint =
// snapshot + compaction. How a frame is applied, and who stamps its
// sequence (the journal for a single server, the router for a sharded
// deployment), stays with the server.

/// `Server::Load`: reads a snapshot pair written by `WriteGraphSnapshotFile`
/// and `WriteRuleSetSnapshotFile` (rules interned against the graph's
/// dictionary) and hands it to `Server::Create`.
template <typename Server, typename Options>
Result<std::unique_ptr<Server>> LoadSession(const std::string& graph_path,
                                            const std::string& rules_path,
                                            const Options& options) {
  GPAR_FAILPOINT("snapshot.load");
  GPAR_ASSIGN_OR_RETURN(Graph g, ReadGraphSnapshotFile(graph_path));
  GPAR_ASSIGN_OR_RETURN(
      std::vector<RuleRecord> rules,
      ReadRuleSetSnapshotFile(rules_path, g.mutable_labels()));
  return Server::Create(std::move(g), std::move(rules), options);
}

/// `Server::Recover`: `LoadSession`, then `AttachJournal` — which replays
/// the journal's valid frame prefix and leaves it live for appends.
template <typename Server, typename Options>
Result<std::unique_ptr<Server>> RecoverSession(
    const std::string& graph_path, const std::string& rules_path,
    const std::string& journal_path, const Options& options,
    const DeltaJournalOptions& journal_options, JournalReplayStats* replay) {
  GPAR_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                        LoadSession<Server>(graph_path, rules_path, options));
  GPAR_RETURN_NOT_OK(
      server->AttachJournal(journal_path, journal_options, replay));
  return server;
}

/// Patches `g` with `delta`, counting the outcome into `ds`. A replayed
/// frame names the labels it uses; they are re-interned into `labels`
/// first, so frames minted after the snapshot was written still resolve.
Result<GraphPatch> PatchForSession(const Graph& g, const GraphDelta& delta,
                                   Interner* labels, DeltaStats* ds);

/// The applied mutations of one batch as a journal (and ship) frame:
/// stamped with `sequence`, naming the labels it references.
GraphDelta AppliedFrame(uint64_t sequence, std::vector<EdgeInsert> inserts,
                        std::vector<EdgeDelete> deletes,
                        const Interner& labels);

/// The writer side both servers share: the writer lock, the attach-journal
/// slot, and the maintain-on-ApplyDelta maintainer. A subclass supplies how
/// a replayed frame is applied.
class DurableSession : public ServeSession {
 public:
  /// Replays the journal's frames through `ReplayLocked`, then opens it.
  Status AttachJournal(const std::string& path,
                       const DeltaJournalOptions& options = {},
                       JournalReplayStats* replay = nullptr) override
      GPAR_EXCLUDES(writer_mu_);
  Status Checkpoint(const std::string& graph_snapshot_path) override
      GPAR_EXCLUDES(writer_mu_);

  bool journal_attached() const GPAR_EXCLUDES(writer_mu_);
  bool maintenance_enabled() const GPAR_EXCLUDES(writer_mu_);
  /// Accumulated maintenance-pass stats (zero when maintenance is off).
  MaintainStats maintain_stats() const GPAR_EXCLUDES(writer_mu_);

 protected:
  /// Applies one replayed journal frame without re-journaling it.
  virtual Status ReplayLocked(const GraphDelta& frame)
      GPAR_REQUIRES(writer_mu_) = 0;
  /// Append-before-publish: writes `frame` and adds its bytes to
  /// `ds->journal_bytes`; a no-op when detached. On failure nothing was
  /// published.
  Status AppendLocked(const GraphDelta& frame, DeltaStats* ds)
      GPAR_REQUIRES(writer_mu_);
  /// Seeds the maintainer on `g` (one full discovery pass); rejects a
  /// second enable.
  Status SeedMaintainerLocked(std::shared_ptr<const Graph> g,
                              const Predicate& q,
                              const MaintainOptions& options)
      GPAR_REQUIRES(writer_mu_);

  /// Serializes deltas, journal attach/append, checkpoint and maintenance.
  mutable Mutex writer_mu_;
  std::unique_ptr<DeltaJournal> journal_ GPAR_GUARDED_BY(writer_mu_);
  /// Maintain-on-ApplyDelta mode: passes run under the writer lock.
  std::unique_ptr<RuleMaintainer> maintainer_ GPAR_GUARDED_BY(writer_mu_);
};

}  // namespace gpar

#endif  // GPAR_SERVE_DURABILITY_H_
