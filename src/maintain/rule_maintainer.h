#ifndef GPAR_MAINTAIN_RULE_MAINTAINER_H_
#define GPAR_MAINTAIN_RULE_MAINTAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "mine/dmine.h"
#include "mine/mined_rule.h"
#include "parallel/thread_pool.h"
#include "rule/gpar.h"
#include "rule/rule_evidence.h"
#include "rule/rule_snapshot.h"

namespace gpar {

/// Options for `RuleMaintainer`.
struct MaintainOptions {
  /// The mining parameters the maintained rule set is defined by. Every
  /// refresh pass replays DMine's discovery skeleton under these exact
  /// parameters (the maintained output is DEFINED as what `Dmine` would
  /// return on the current graph), so they are fixed at construction and
  /// persisted with the evidence. `num_workers` sizes the re-probe pool
  /// only: DMine results, and so the maintained set, do not depend on it.
  DmineOptions mine;
  /// The subsystem's own ablation flag: off = every pass re-probes every
  /// pool center from scratch (a sequential re-mine — the "remine" baseline
  /// of BENCH_maintenance), on = only centers inside the delta-affected
  /// region are re-probed; everything else is carried from evidence. Both
  /// settings produce identical rule sets (MaintainEquivalence battery).
  bool enable_incremental_maintenance = true;
};

/// Cost accounting for one maintenance pass (and, accumulated, for the
/// maintainer's lifetime — `evidence_bytes_*` are point-in-time, not sums).
struct MaintainStats {
  uint64_t passes = 0;
  size_t edges_inserted = 0;  ///< applied mutations this pass
  size_t edges_deleted = 0;
  /// Nodes within d hops of a touched edge (the delta-affected region).
  uint64_t affected_nodes = 0;
  uint64_t centers_reprobed = 0;  ///< pool memberships recomputed by matching
  uint64_t centers_carried = 0;   ///< pool memberships reused from evidence
  uint64_t exists_calls = 0;      ///< matcher probes (pools + rules)
  size_t candidates_evaluated = 0;  ///< candidate rules the pass walked
  /// Candidates whose match sets were patched from a prior pass's evidence
  /// (only affected centers re-probed).
  size_t rules_patched = 0;
  /// Candidates with no usable evidence — first seen, or their pattern
  /// never evaluated before — re-expanded by probing their full (parent-
  /// restricted) pool.
  size_t rules_reexpanded = 0;
  /// Rules whose support crossed sigma since their last evidence: upward
  /// crossings (re)admit the rule to Σ, downward ones retire it.
  size_t sigma_crossed_up = 0;
  size_t sigma_crossed_down = 0;
  size_t rules_accepted = 0;  ///< entered Σ this pass (supp >= sigma, nontrivial)
  /// Serialized size of the pass's full evidence section, raw center lists
  /// vs the match-set-delta encoding actually persisted (point-in-time).
  uint64_t evidence_bytes_full = 0;
  uint64_t evidence_bytes_delta = 0;
  double seconds = 0;
};

/// Incremental rule maintenance: keeps a mined diversified top-k — and the
/// full per-rule match evidence behind it — fresh under the delta stream
/// without re-running DMine.
///
/// The maintained invariant: after every pass, `topk()`/`objective()` (and
/// the supports/confidences of every rule in Σ) equal what
/// `Dmine(current graph, q, options.mine)` would return, byte-for-byte.
/// Each pass replays DMine's cheap discovery skeleton — seed alphabet,
/// levelwise candidate generation, automorphism dedup, incDiv, reduction
/// rules — but replaces the expensive part, match evaluation, with evidence
/// patching. By the locality property (Section 5.1) a center's membership
/// in a pattern of radius r depends only on G_r(center); the batch's
/// `DeltaFrontier` narrows that to single pattern edges. For pattern edge
/// e, h(e) is the distance from x to e's nearer endpoint (h(e) < r). A
/// (pattern, center) membership is re-probed only when
///  - the center is a member and a deleted edge with the label triple of
///    some pattern edge e lies within h(e) hops of it (pre-delete graph),
///  - the center is not a member and an inserted edge with the triple of
///    some pattern edge e lies within h(e) hops of it (patched graph), or
///  - the center's q / ~q pool status flipped in this batch. Evidence
///    sets only hold centers of the pool they were probed over (the ~q
///    side is intersected with the ~q pool), so a center entering a pool
///    has no evidence to carry even when its match did not change.
/// Every other membership is carried from the previous pass's evidence.
/// Pool status itself reads only a center's own out-edges with the q
/// label, so only the sources of touched q-labelled edges are re-probed
/// for it. A candidate whose pattern has no prior evidence (a sigma
/// crossing upstream changed the lineage, or the seed alphabet shifted) is
/// re-expanded locally: its pool is already restricted to its parent's
/// fresh match set, so the full probe stays proportional to that rule, not
/// the graph.
///
/// The probes of a round are independent given the previous rounds'
/// evidence, so they fan out over a pool of `mine.num_workers` threads,
/// one matcher per worker; entries are assembled in candidate order, so
/// the evidence and top-k do not depend on the worker count.
///
/// Not thread-safe: callers serialize passes (the servers run them under
/// their writer lock).
class RuleMaintainer {
 public:
  /// Seeds a maintainer by running one full discovery pass on `g` — the
  /// result is identical to `Dmine(g, q, options.mine)`, and the pass's
  /// match evidence becomes the baseline later deltas patch.
  static Result<std::unique_ptr<RuleMaintainer>> Seed(
      std::shared_ptr<const Graph> g, const Predicate& q,
      const MaintainOptions& options = {});

  /// Restores a maintainer from a persisted evidence section (rule-snapshot
  /// v2) against the graph that section was exported at. The evidence setup
  /// must match `options.mine` (same predicate labels and mining
  /// parameters); a mismatch is InvalidArgument — patching against a
  /// foreign lineage would silently corrupt supports. Runs one zero-delta
  /// pass to rebuild Σ/top-k from the evidence — no pool probes, pattern-
  /// level work only.
  static Result<std::unique_ptr<RuleMaintainer>> FromEvidence(
      std::shared_ptr<const Graph> g, RuleSetEvidence evidence,
      const MaintainOptions& options = {});

  /// Applies one mutation batch: patches the graph internally, then runs a
  /// maintenance pass over the applied mutations. A batch that changes
  /// nothing (all duplicates/missing) only advances the sequence.
  Result<MaintainStats> ApplyDelta(const GraphDelta& delta);

  /// Serving hook: the caller (a server) already patched and swapped the
  /// graph; run the maintenance pass over the batch's frontier, computed
  /// from the pre-delta graph to `new_graph` at radius >= `mine.d` (a
  /// smaller radius only costs re-probes). The maintainer adopts
  /// `new_graph` as current.
  Result<MaintainStats> Advance(std::shared_ptr<const Graph> new_graph,
                                const DeltaFrontier& frontier);

  /// Replays every journal frame with sequence > `last_sequence()` through
  /// `ApplyDelta`, in order — snapshot + journal convergence for the
  /// maintained rule set, mirroring the servers' attach-is-recovery
  /// discipline. Returns the accumulated stats of the replayed passes.
  Result<MaintainStats> ReplayJournal(const std::string& journal_path);

  /// The maintained diversified top-k (same contents as DmineResult::topk
  /// on the current graph) and its objective F(L_k).
  const std::vector<std::shared_ptr<MinedRule>>& topk() const { return topk_; }
  double objective() const { return objective_; }
  /// The top-k as serving-layer records (rule, supp, conf).
  std::vector<RuleRecord> TopKRecords() const;

  /// The current evidence — what rule-snapshot v2 persists. Entries are in
  /// evaluation order (parents precede children).
  const RuleSetEvidence& evidence() const { return evidence_; }
  RuleSetEvidence ExportEvidence() const { return evidence_; }

  std::shared_ptr<const Graph> graph() const { return graph_; }
  const Predicate& predicate() const { return q_; }
  const MaintainOptions& options() const { return options_; }
  uint64_t supp_q() const { return evidence_.q_pool.size(); }
  uint64_t supp_qbar() const { return evidence_.qbar_pool.size(); }
  /// Sequence of the last applied delta (journal bookkeeping).
  uint64_t last_sequence() const { return last_sequence_; }
  const MaintainStats& lifetime_stats() const { return lifetime_; }

 private:
  RuleMaintainer(std::shared_ptr<const Graph> g, const Predicate& q,
                 const MaintainOptions& options);

  /// One maintenance pass on the current graph, carrying every membership
  /// `frontier` proves unchanged; nullptr = probe everything (the seed pass
  /// and the incremental-off ablation).
  Status RefreshPass(const DeltaFrontier* frontier, MaintainStats* ps);
  void RebuildIndex();
  /// Runs fn(worker, task) for every task in [0, n), handing tasks out
  /// dynamically over the pool (inline on worker 0 without one).
  void RunTasks(size_t n, const std::function<void(uint32_t, size_t)>& fn);

  MaintainOptions options_;
  /// Re-probe workers; null when `mine.num_workers` <= 1.
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<const Graph> graph_;
  Predicate q_;
  Pattern pq_;    ///< P_q: x --q--> y
  Pattern base_;  ///< the bare two-node antecedent round 1 extends

  /// The current evidence: pools + per-candidate match sets of the latest
  /// pass (ALL evaluated candidates, sub-sigma ones included — that is
  /// what makes upward sigma crossings cheap).
  RuleSetEvidence evidence_;
  /// StructuralHash(entry.rule.pr()) -> indices into evidence_.entries.
  std::unordered_map<uint64_t, std::vector<uint32_t>> index_;

  std::vector<std::shared_ptr<MinedRule>> topk_;
  double objective_ = 0;
  uint64_t last_sequence_ = 0;
  MaintainStats lifetime_;
};

}  // namespace gpar

#endif  // GPAR_MAINTAIN_RULE_MAINTAINER_H_
