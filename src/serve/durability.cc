#include "serve/durability.h"

namespace gpar {

Result<GraphPatch> PatchForSession(const Graph& g, const GraphDelta& delta,
                                   Interner* labels, DeltaStats* ds) {
  GPAR_RETURN_NOT_OK(ApplyLabelDefs(delta, labels));
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch, PatchGraph(g, delta));
  ds->edges_inserted = patch.edges_inserted;
  ds->duplicates_ignored = patch.duplicates;
  ds->edges_deleted = patch.edges_deleted;
  ds->deletes_missing = patch.missing;
  return patch;
}

GraphDelta AppliedFrame(uint64_t sequence, std::vector<EdgeInsert> inserts,
                        std::vector<EdgeDelete> deletes,
                        const Interner& labels) {
  GraphDelta frame;
  frame.sequence = sequence;
  frame.inserts = std::move(inserts);
  frame.deletes = std::move(deletes);
  CollectLabelDefs(labels, &frame);
  return frame;
}

Status DurableSession::AttachJournal(const std::string& path,
                                     const DeltaJournalOptions& options,
                                     JournalReplayStats* replay) {
  MutexLock writer(writer_mu_);
  if (journal_ != nullptr) {
    return Status::InvalidArgument("a journal is already attached");
  }
  JournalReplayStats stats;
  GPAR_ASSIGN_OR_RETURN(std::vector<GraphDelta> frames,
                        DeltaJournal::ReadAll(path, &stats));
  // These frames ARE the journal: replay does not re-journal them, and the
  // checkpoint floor marker (an empty frame) falls out as a no-op.
  for (const GraphDelta& frame : frames) {
    GPAR_RETURN_NOT_OK(ReplayLocked(frame));
  }
  GPAR_ASSIGN_OR_RETURN(journal_, DeltaJournal::Open(path, options));
  if (replay != nullptr) *replay = stats;
  return Status::OK();
}

Status DurableSession::Checkpoint(const std::string& graph_snapshot_path) {
  MutexLock writer(writer_mu_);
  if (journal_ == nullptr) {
    return Status::InvalidArgument("checkpoint requires an attached journal");
  }
  GPAR_RETURN_NOT_OK(
      WriteGraphSnapshotFile(*graph_snapshot(), graph_snapshot_path));
  // The snapshot now carries every journaled frame's effects; compaction
  // keeps only the sequence floor.
  return journal_->Compact();
}

bool DurableSession::journal_attached() const {
  MutexLock writer(writer_mu_);
  return journal_ != nullptr;
}

bool DurableSession::maintenance_enabled() const {
  MutexLock writer(writer_mu_);
  return maintainer_ != nullptr;
}

MaintainStats DurableSession::maintain_stats() const {
  MutexLock writer(writer_mu_);
  return maintainer_ != nullptr ? maintainer_->lifetime_stats()
                                : MaintainStats{};
}

Status DurableSession::AppendLocked(const GraphDelta& frame, DeltaStats* ds) {
  if (journal_ == nullptr) return Status::OK();
  const uint64_t bytes_before = journal_->size_bytes();
  GPAR_RETURN_NOT_OK(journal_->Append(frame));
  ds->journal_bytes = journal_->size_bytes() - bytes_before;
  return Status::OK();
}

Status DurableSession::SeedMaintainerLocked(std::shared_ptr<const Graph> g,
                                            const Predicate& q,
                                            const MaintainOptions& options) {
  if (maintainer_ != nullptr) {
    return Status::InvalidArgument("maintenance is already enabled");
  }
  GPAR_ASSIGN_OR_RETURN(maintainer_,
                        RuleMaintainer::Seed(std::move(g), q, options));
  return Status::OK();
}

}  // namespace gpar
