#include "maintain/rule_maintainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <span>
#include <utility>

#include "graph/stats.h"
#include "match/matcher.h"
#include "mine/inc_div.h"
#include "mine/reduction.h"
#include "pattern/pattern_ops.h"
#include "rule/diversity.h"
#include "rule/match_delta.h"
#include "rule/metrics.h"
#include "serve/delta_journal.h"

namespace gpar {

namespace {

uint32_t PackFlags(const DmineOptions& o) {
  uint32_t f = 0;
  if (o.enable_incremental_div) f |= 1u << 0;
  if (o.enable_reduction_rules) f |= 1u << 1;
  if (o.enable_bisim_prefilter) f |= 1u << 2;
  if (o.enable_parent_prune) f |= 1u << 3;
  return f | kRetiredSetupFlagsWritten;
}

MiningSetup MakeSetup(const DmineOptions& o, const Predicate& q,
                      const Interner& labels) {
  MiningSetup s;
  s.x_label = labels.Name(q.x_label);
  s.edge_label = labels.Name(q.edge_label);
  s.y_label = labels.Name(q.y_label);
  s.k = o.k;
  s.d = o.d;
  s.sigma = o.sigma;
  s.lambda = o.lambda;
  s.max_pattern_edges = o.max_pattern_edges;
  s.seed_edge_limit = o.seed_edge_limit;
  s.max_candidates_per_round = o.max_candidates_per_round;
  s.bool_flags = PackFlags(o);
  return s;
}

Status ValidateOptions(const MaintainOptions& options) {
  if (options.mine.k < 2) {
    return Status::InvalidArgument("k must be at least 2");
  }
  if (options.mine.d == 0) {
    return Status::InvalidArgument("d must be at least 1");
  }
  return Status::OK();
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Folds one pass's counters into an accumulator. The evidence byte gauges
/// are point-in-time (the latest pass's evidence), not sums.
void Accumulate(MaintainStats* total, const MaintainStats& ps) {
  total->passes += ps.passes;
  total->edges_inserted += ps.edges_inserted;
  total->edges_deleted += ps.edges_deleted;
  total->affected_nodes += ps.affected_nodes;
  total->centers_reprobed += ps.centers_reprobed;
  total->centers_carried += ps.centers_carried;
  total->exists_calls += ps.exists_calls;
  total->candidates_evaluated += ps.candidates_evaluated;
  total->rules_patched += ps.rules_patched;
  total->rules_reexpanded += ps.rules_reexpanded;
  total->sigma_crossed_up += ps.sigma_crossed_up;
  total->sigma_crossed_down += ps.sigma_crossed_down;
  total->rules_accepted += ps.rules_accepted;
  if (ps.passes > 0) {
    total->evidence_bytes_full = ps.evidence_bytes_full;
    total->evidence_bytes_delta = ps.evidence_bytes_delta;
  }
  total->seconds += ps.seconds;
}

/// One worker's share of a pass's probe counters, on its own cache line.
struct alignas(64) ProbeCounts {
  uint64_t reprobed = 0;
  uint64_t carried = 0;
  uint64_t exists = 0;
};

/// Evaluates pattern `p` over the sorted `pool`, appending the matching
/// centers to `out`. With evidence (`old_set`, the pattern's previous
/// match set, non-null only alongside `frontier`), a center is carried
/// unless the frontier can flip it (`PatternFrontier::Reach`: a member
/// needs a relevant delete, a non-member a relevant insert, each within
/// its pattern edge's hop), and a center whose pool status flipped
/// (`flipped`, sorted) has no evidence.
void ProbePool(VF2Matcher& matcher, const Pattern& p,
               std::span<const NodeId> pool,
               const std::vector<NodeId>* old_set,
               const DeltaFrontier* frontier,
               const std::vector<NodeId>& flipped, std::vector<NodeId>* out,
               ProbeCounts* counts) {
  std::optional<PatternFrontier> reach;
  if (old_set != nullptr) reach.emplace(*frontier, p);
  size_t j = 0;  // cursor into old_set: both lists are sorted
  for (NodeId c : pool) {
    if (old_set != nullptr) {
      while (j < old_set->size() && (*old_set)[j] < c) ++j;
      const bool was = j < old_set->size() && (*old_set)[j] == c;
      if (reach->Reach(c, was) == 0 &&
          !std::binary_search(flipped.begin(), flipped.end(), c)) {
        ++counts->carried;
        if (was) out->push_back(c);
        continue;
      }
    }
    ++counts->reprobed;
    ++counts->exists;
    if (matcher.ExistsAt(p, c)) out->push_back(c);
  }
}

}  // namespace

RuleMaintainer::RuleMaintainer(std::shared_ptr<const Graph> g,
                               const Predicate& q,
                               const MaintainOptions& options)
    : options_(options), graph_(std::move(g)), q_(q) {
  if (options_.mine.num_workers > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.mine.num_workers);
  }
  pq_ = q_.ToPattern();
  PNodeId x = base_.AddNode(q_.x_label);
  PNodeId y = base_.AddNode(q_.y_label);
  base_.set_x(x);
  base_.set_y(y);
  evidence_.setup = MakeSetup(options_.mine, q_, graph_->labels());
}

Result<std::unique_ptr<RuleMaintainer>> RuleMaintainer::Seed(
    std::shared_ptr<const Graph> g, const Predicate& q,
    const MaintainOptions& options) {
  GPAR_RETURN_NOT_OK(ValidateOptions(options));
  if (g == nullptr) return Status::InvalidArgument("null graph");
  if (q.x_label >= g->labels().size() || q.edge_label >= g->labels().size() ||
      q.y_label >= g->labels().size()) {
    return Status::InvalidArgument(
        "predicate labels are not interned in the graph's dictionary");
  }
  std::unique_ptr<RuleMaintainer> m(
      new RuleMaintainer(std::move(g), q, options));
  MaintainStats ps;
  GPAR_RETURN_NOT_OK(m->RefreshPass(nullptr, &ps));
  Accumulate(&m->lifetime_, ps);
  return m;
}

Result<std::unique_ptr<RuleMaintainer>> RuleMaintainer::FromEvidence(
    std::shared_ptr<const Graph> g, RuleSetEvidence evidence,
    const MaintainOptions& options) {
  GPAR_RETURN_NOT_OK(ValidateOptions(options));
  if (g == nullptr) return Status::InvalidArgument("null graph");
  Interner* labels = g->labels_ptr().get();
  const Predicate q{labels->Intern(evidence.setup.x_label),
                    labels->Intern(evidence.setup.edge_label),
                    labels->Intern(evidence.setup.y_label)};
  std::unique_ptr<RuleMaintainer> m(
      new RuleMaintainer(std::move(g), q, options));
  // The retired bits never changed results: compare with them normalized.
  evidence.setup.bool_flags =
      (evidence.setup.bool_flags & ~kRetiredSetupFlags) |
      kRetiredSetupFlagsWritten;
  if (!(evidence.setup == m->evidence_.setup)) {
    return Status::InvalidArgument(
        "evidence mining setup does not match MaintainOptions: evidence is "
        "only reusable under the exact parameters it was mined with");
  }
  m->evidence_ = std::move(evidence);
  m->RebuildIndex();
  // A zero-delta pass rebuilds Σ/top-k from the adopted evidence: with an
  // empty frontier every membership is carried, so this is pattern-level
  // work only (no pool probes) when the evidence matches the graph — and a
  // sound (if slow) re-expansion when it does not.
  const DeltaFrontier kNothingTouched;
  MaintainStats ps;
  GPAR_RETURN_NOT_OK(m->RefreshPass(&kNothingTouched, &ps));
  Accumulate(&m->lifetime_, ps);
  return m;
}

void RuleMaintainer::RebuildIndex() {
  index_.clear();
  for (uint32_t i = 0; i < evidence_.entries.size(); ++i) {
    index_[StructuralHash(evidence_.entries[i].rule.pr())].push_back(i);
  }
}

void RuleMaintainer::RunTasks(
    size_t n, const std::function<void(uint32_t, size_t)>& fn) {
  if (pool_ == nullptr || n <= 1) {
    for (size_t t = 0; t < n; ++t) fn(0, t);
    return;
  }
  std::atomic<size_t> next{0};
  ParallelFor(*pool_, pool_->num_threads(), [&](uint32_t worker) {
    // Relaxed: the counter only hands out distinct task ids; ParallelFor's
    // completion latch publishes every task's writes to the caller.
    for (size_t t = next.fetch_add(1, std::memory_order_relaxed); t < n;
         t = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(worker, t);
    }
  });
}

Status RuleMaintainer::RefreshPass(const DeltaFrontier* frontier,
                                   MaintainStats* ps) {
  const auto t0 = std::chrono::steady_clock::now();
  const DmineOptions& mo = options_.mine;
  const Graph& g = *graph_;
  if (!options_.enable_incremental_maintenance) frontier = nullptr;
  ++ps->passes;

  SearchPlanStore plan_store(g);
  {
    PNodeId px = pq_.x();
    plan_store.Prepare(pq_, {&px, 1});
  }
  // One matcher per worker, all reading the shared store (Prepare runs
  // only between the parallel sections).
  const uint32_t workers = pool_ != nullptr ? pool_->num_threads() : 1;
  std::vector<std::unique_ptr<VF2Matcher>> matchers;
  for (uint32_t w = 0; w < workers; ++w) {
    matchers.push_back(std::make_unique<VF2Matcher>(g));
    matchers.back()->set_plan_store(&plan_store);
  }
  std::vector<ProbeCounts> counts(workers);

  // --- Round 0: the q / ~q pools. Both read only a center's own out-edges
  // with the q label, so only the sources of touched q-labelled edges are
  // re-probed; the centers whose status flipped are recorded, since their
  // evidence in every pattern is void (see the class comment).
  std::vector<NodeId> pool_touched, flipped;
  if (frontier != nullptr) {
    for (const EdgeInsert& e : frontier->inserts()) {
      if (e.label == q_.edge_label) pool_touched.push_back(e.src);
    }
    for (const EdgeDelete& e : frontier->deletes()) {
      if (e.label == q_.edge_label) pool_touched.push_back(e.src);
    }
    std::sort(pool_touched.begin(), pool_touched.end());
  }
  RuleSetEvidence next;
  next.setup = evidence_.setup;
  const std::vector<NodeId>& q_pool = evidence_.q_pool;
  const std::vector<NodeId>& qbar_pool = evidence_.qbar_pool;
  for (NodeId c : g.nodes_with_label(q_.x_label)) {
    bool was_q = false, was_qbar = false;
    if (frontier != nullptr) {
      was_q = std::binary_search(q_pool.begin(), q_pool.end(), c);
      was_qbar = !was_q &&
                 std::binary_search(qbar_pool.begin(), qbar_pool.end(), c);
    }
    bool in_q = was_q, in_qbar = was_qbar;
    const bool probe =
        frontier == nullptr ||
        std::binary_search(pool_touched.begin(), pool_touched.end(), c);
    if (probe) {
      ++ps->centers_reprobed;
      ++ps->exists_calls;
      in_q = matchers[0]->ExistsAt(pq_, c);
      in_qbar = !in_q && g.HasOutLabel(c, q_.edge_label);
      if (frontier != nullptr && (in_q != was_q || in_qbar != was_qbar)) {
        flipped.push_back(c);
      }
    } else {
      ++ps->centers_carried;
    }
    if (in_q) {
      next.q_pool.push_back(c);
    } else if (in_qbar) {
      next.qbar_pool.push_back(c);
    }
  }

  const uint64_t supp_q = next.q_pool.size();
  const uint64_t supp_qbar = next.qbar_pool.size();
  if (supp_q == 0 || supp_qbar == 0) {
    // Dmine's early-out: no mineable rules. Discovery is skipped, so no
    // evidence gets refreshed — and stale entries must not survive to be
    // patched against a graph they no longer describe. Drop them; the next
    // pass with live pools re-expands from scratch.
    evidence_ = std::move(next);
    index_.clear();
    topk_.clear();
    objective_ = 0;
    ps->seconds = SecondsSince(t0);
    return Status::OK();
  }

  const double n_norm =
      static_cast<double>(supp_q) * static_cast<double>(supp_qbar);
  IncDiv incdiv(mo.k, mo.lambda, n_norm, next.q_pool);
  std::vector<std::shared_ptr<MinedRule>> sigma;
  std::unordered_map<uint64_t, std::vector<Pattern>> seen_buckets;
  const std::vector<EdgePatternStat> seeds =
      FrequentEdgePatterns(g, mo.seed_edge_limit);
  DmineStats dedup_stats;  // scratch for DedupCandidates' counters
  const bool prune = mo.enable_parent_prune;

  // This round's parents, with the index of each parent's entry in
  // `next.entries` (its freshly patched pools).
  std::vector<std::shared_ptr<MinedRule>> m_parents;
  std::vector<uint32_t> m_parent_entry;

  // The discovery skeleton below replays Dmine's coordinator loop verbatim
  // (same candidate stream, dedup, acceptance, incDiv and reduction calls),
  // with match evaluation swapped for evidence patching. Supports computed
  // here are exactly the full-probe values — the frontier carries only
  // memberships no touched edge can flip, anti-monotone pools bound the
  // rest — so the pass output is byte-identical to Dmine on the current
  // graph.
  for (uint32_t round = 1;
       round <= mo.max_pattern_edges && (round == 1 || !m_parents.empty());
       ++round) {
    std::vector<Gpar> fresh;
    std::vector<size_t> fresh_parent;
    auto generate_from = [&](const Pattern& ant, size_t parent_idx) {
      std::vector<Gpar> ext = GenerateExtensions(
          ant, q_.edge_label, mo.d, mo.max_pattern_edges, seeds);
      for (Gpar& e : ext) {
        fresh.push_back(std::move(e));
        fresh_parent.push_back(parent_idx);
      }
    };
    if (round == 1) {
      generate_from(base_, kRootParent);
    } else {
      for (size_t pi = 0; pi < m_parents.size(); ++pi) {
        generate_from(m_parents[pi]->rule.antecedent(), pi);
      }
    }

    const std::vector<size_t> kept =
        DedupCandidates(fresh, mo.max_candidates_per_round, &seen_buckets,
                        mo.enable_bisim_prefilter, &dedup_stats);
    if (kept.empty()) break;
    ps->candidates_evaluated += kept.size();

    // Per candidate: its pools — the parent's THIS-pass match sets
    // (already exact), or the round-0 pools for roots and the prune-off
    // ablation — and its prior evidence, if any (a fresh pattern — new
    // seed, shifted lineage — has none and is re-expanded over its pool,
    // which its parent has already narrowed). The spans stay valid through
    // the round: this round's entries are appended only after its probes.
    struct Candidate {
      std::span<const NodeId> pr_pool, ant_pool;
      const EvidenceEntry* old_ev = nullptr;
    };
    std::vector<Candidate> cands(kept.size());
    std::vector<EvidenceEntry> entries(kept.size());
    std::vector<char> other_ok(kept.size(), 1);
    for (size_t ci = 0; ci < kept.size(); ++ci) {
      EvidenceEntry& ent = entries[ci];
      ent.rule = std::move(fresh[kept[ci]]);
      const size_t parent = fresh_parent[kept[ci]];
      ent.parent = (prune && parent != kRootParent) ? m_parent_entry[parent]
                                                    : kEvidenceRoot;
      Candidate& c = cands[ci];
      if (ent.parent != kEvidenceRoot) {
        c.pr_pool = next.entries[ent.parent].pr_matches;
        c.ant_pool = next.entries[ent.parent].ant_matches;
      } else {
        c.pr_pool = next.q_pool;
        c.ant_pool = next.qbar_pool;
      }
      if (frontier != nullptr) {
        auto it = index_.find(StructuralHash(ent.rule.pr()));
        if (it != index_.end()) {
          for (uint32_t ei : it->second) {
            if (evidence_.entries[ei].rule == ent.rule) {
              c.old_ev = &evidence_.entries[ei];
              break;
            }
          }
        }
      }
      if (c.old_ev != nullptr) {
        ++ps->rules_patched;
      } else {
        ++ps->rules_reexpanded;
      }
      PNodeId prx = ent.rule.pr().x();
      plan_store.Prepare(ent.rule.pr(), {&prx, 1});
      PNodeId qx = ent.rule.x_component().x();
      plan_store.Prepare(ent.rule.x_component(), {&qx, 1});
    }

    // The probes: task 2ci evaluates candidate ci's P_R over its pr pool,
    // task 2ci+1 its antecedent x-component over its ~q pool (after the
    // global check of Q's other components, which gates that side).
    RunTasks(2 * kept.size(), [&](uint32_t w, size_t task) {
      const size_t ci = task / 2;
      const Candidate& c = cands[ci];
      EvidenceEntry& ent = entries[ci];
      VF2Matcher& matcher = *matchers[w];
      if (task % 2 == 0) {
        ProbePool(matcher, ent.rule.pr(), c.pr_pool,
                  c.old_ev != nullptr ? &c.old_ev->pr_matches : nullptr,
                  frontier, flipped, &ent.pr_matches, &counts[w]);
        return;
      }
      for (const Pattern& comp : ent.rule.other_components()) {
        ++counts[w].exists;
        if (!matcher.Exists(comp)) {
          other_ok[ci] = 0;
          return;
        }
      }
      ent.ant_probed = true;
      const bool have_ant = c.old_ev != nullptr && c.old_ev->ant_probed;
      ProbePool(matcher, ent.rule.x_component(), c.ant_pool,
                have_ant ? &c.old_ev->ant_matches : nullptr, frontier,
                flipped, &ent.ant_matches, &counts[w]);
    });

    std::vector<std::shared_ptr<MinedRule>> delta;
    std::vector<uint32_t> delta_entry;  // entry index per accepted rule
    for (size_t ci = 0; ci < kept.size(); ++ci) {
      EvidenceEntry& ent = entries[ci];
      auto rule = std::make_shared<MinedRule>();
      rule->rule = ent.rule;
      rule->supp = ent.pr_matches.size();
      rule->matches = ent.pr_matches;
      rule->extendable = rule->supp > 0;
      rule->uconf_plus = UConfPlus(rule->supp, supp_qbar, supp_q);
      if (other_ok[ci]) rule->supp_qqbar = ent.ant_matches.size();

      if (const EvidenceEntry* old_ev = cands[ci].old_ev) {
        const bool was_in = old_ev->pr_matches.size() >= mo.sigma;
        const bool now_in = rule->supp >= mo.sigma;
        if (!was_in && now_in) ++ps->sigma_crossed_up;
        if (was_in && !now_in) ++ps->sigma_crossed_down;
      }

      const uint32_t entry_idx = static_cast<uint32_t>(next.entries.size());
      next.entries.push_back(std::move(ent));

      if (rule->supp < mo.sigma) continue;
      if (rule->supp_qqbar == 0) continue;  // trivial logic rule
      rule->conf =
          BayesFactorConf(rule->supp, supp_qbar, rule->supp_qqbar, supp_q);
      delta.push_back(std::move(rule));
      delta_entry.push_back(entry_idx);
    }
    ps->rules_accepted += delta.size();
    sigma.insert(sigma.end(), delta.begin(), delta.end());

    if (mo.enable_incremental_div) {
      incdiv.AddRound(delta, sigma);
      if (mo.enable_reduction_rules) {
        ApplyReductionRules(
            sigma, delta, incdiv.MinPairFPrime(), mo.lambda, n_norm, mo.k,
            [&](const MinedRule* rr) { return incdiv.InQueue(rr); });
      }
    }

    m_parents.clear();
    m_parent_entry.clear();
    for (size_t di = 0; di < delta.size(); ++di) {
      const auto& rr = delta[di];
      if (!rr->extendable || rr->pruned ||
          rr->rule.antecedent().num_edges() >= mo.max_pattern_edges) {
        continue;
      }
      m_parents.push_back(rr);
      m_parent_entry.push_back(delta_entry[di]);
    }
  }
  for (const ProbeCounts& c : counts) {
    ps->centers_reprobed += c.reprobed;
    ps->centers_carried += c.carried;
    ps->exists_calls += c.exists;
  }

  if (mo.enable_incremental_div) {
    topk_ = incdiv.TopK();
    objective_ = incdiv.Objective();
  } else {
    topk_ = FullDiversify(sigma, mo.k, mo.lambda, n_norm);
    std::vector<double> confs;
    std::vector<const std::vector<NodeId>*> sets;
    for (const auto& r : topk_) {
      confs.push_back(r->conf);
      sets.push_back(&r->matches);
    }
    objective_ = ObjectiveF(confs, sets, mo.lambda, n_norm, mo.k);
  }

  evidence_ = std::move(next);
  RebuildIndex();

  for (const EvidenceEntry& e : evidence_.entries) {
    const size_t parent_pr =
        e.parent == kEvidenceRoot ? evidence_.q_pool.size()
                                  : evidence_.entries[e.parent].pr_matches.size();
    const size_t parent_ant =
        e.parent == kEvidenceRoot
            ? evidence_.qbar_pool.size()
            : evidence_.entries[e.parent].ant_matches.size();
    ps->evidence_bytes_full += FullEncodedBytes(e.pr_matches.size()) +
                               FullEncodedBytes(e.ant_matches.size());
    ps->evidence_bytes_delta +=
        DeltaEncodedBytes(e.pr_matches.size(), parent_pr) +
        DeltaEncodedBytes(e.ant_matches.size(), parent_ant);
  }
  ps->seconds = SecondsSince(t0);
  return Status::OK();
}

Result<MaintainStats> RuleMaintainer::Advance(
    std::shared_ptr<const Graph> new_graph, const DeltaFrontier& frontier) {
  if (new_graph == nullptr) return Status::InvalidArgument("null graph");
  MaintainStats ps;
  ps.edges_inserted = frontier.inserts().size();
  ps.edges_deleted = frontier.deletes().size();
  graph_ = std::move(new_graph);
  if (options_.enable_incremental_maintenance) {
    for (const auto& [v, dist] : frontier.region()) {
      if (dist <= options_.mine.d) ++ps.affected_nodes;
    }
  }
  GPAR_RETURN_NOT_OK(RefreshPass(&frontier, &ps));
  Accumulate(&lifetime_, ps);
  return ps;
}

Result<MaintainStats> RuleMaintainer::ApplyDelta(const GraphDelta& delta) {
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch, PatchGraph(*graph_, delta));
  if (delta.sequence > last_sequence_) last_sequence_ = delta.sequence;
  if (patch.applied.empty() && patch.applied_deletes.empty()) {
    // Nothing changed (duplicates/missing only, or a compaction marker):
    // the rule set is already fresh.
    return MaintainStats{};
  }
  auto next = std::make_shared<const Graph>(std::move(patch.graph));
  const DeltaFrontier frontier =
      DeltaFrontier::Compute(*graph_, *next, patch.applied,
                             patch.applied_deletes, options_.mine.d);
  return Advance(std::move(next), frontier);
}

Result<MaintainStats> RuleMaintainer::ReplayJournal(
    const std::string& journal_path) {
  MaintainStats total;
  GPAR_RETURN_NOT_OK(ReplayRange(
      journal_path, last_sequence_, [&](const GraphDelta& frame) -> Status {
        auto r = ApplyDelta(frame);
        if (!r.ok()) return r.status();
        Accumulate(&total, r.value());
        return Status::OK();
      }));
  return total;
}

std::vector<RuleRecord> RuleMaintainer::TopKRecords() const {
  std::vector<RuleRecord> out;
  out.reserve(topk_.size());
  for (const auto& r : topk_) {
    out.push_back(RuleRecord{r->rule, r->supp, r->conf});
  }
  return out;
}

}  // namespace gpar
