#include "maintain/rule_maintainer.h"

#include <algorithm>
#include <chrono>
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

}  // namespace

RuleMaintainer::RuleMaintainer(std::shared_ptr<const Graph> g,
                               const Predicate& q,
                               const MaintainOptions& options)
    : options_(options), graph_(std::move(g)), q_(q) {
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
  // empty affected map every membership is carried, so this is pattern-
  // level work only (no pool probes) when the evidence matches the graph —
  // and a sound (if slow) re-expansion when it does not.
  const std::unordered_map<NodeId, uint32_t> kNoneAffected;
  MaintainStats ps;
  GPAR_RETURN_NOT_OK(m->RefreshPass(&kNoneAffected, &ps));
  Accumulate(&m->lifetime_, ps);
  return m;
}

void RuleMaintainer::RebuildIndex() {
  index_.clear();
  for (uint32_t i = 0; i < evidence_.entries.size(); ++i) {
    index_[StructuralHash(evidence_.entries[i].rule.pr())].push_back(i);
  }
}

Status RuleMaintainer::RefreshPass(
    const std::unordered_map<NodeId, uint32_t>* affected, MaintainStats* ps) {
  const auto t0 = std::chrono::steady_clock::now();
  const DmineOptions& mo = options_.mine;
  const Graph& g = *graph_;
  if (!options_.enable_incremental_maintenance) affected = nullptr;
  ++ps->passes;

  VF2Matcher matcher(g);
  SearchPlanStore plan_store(g);
  {
    PNodeId px = pq_.x();
    plan_store.Prepare(pq_, {&px, 1});
    matcher.set_plan_store(&plan_store);
  }

  // --- Round 0: the q / ~q pools, patched over the affected frontier.
  // Pool membership of a center depends on G_1(center) (P_q has radius 1;
  // the ~q test reads the center's own out-edges), so only centers within
  // distance 1 of a touched endpoint are re-probed.
  RuleSetEvidence next;
  next.setup = evidence_.setup;
  for (NodeId c : g.nodes_with_label(q_.x_label)) {
    bool probe = affected == nullptr;
    if (!probe) {
      auto it = affected->find(c);
      probe = it != affected->end() && it->second <= 1;
    }
    bool in_q = false, in_qbar = false;
    if (probe) {
      ++ps->centers_reprobed;
      ++ps->exists_calls;
      in_q = matcher.ExistsAt(pq_, c);
      if (!in_q) in_qbar = g.HasOutLabel(c, q_.edge_label);
    } else {
      ++ps->centers_carried;
      in_q = std::binary_search(evidence_.q_pool.begin(),
                                evidence_.q_pool.end(), c);
      if (!in_q) {
        in_qbar = std::binary_search(evidence_.qbar_pool.begin(),
                                     evidence_.qbar_pool.end(), c);
      }
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
  IncDiv incdiv(mo.k, mo.lambda, n_norm);
  std::vector<std::shared_ptr<MinedRule>> sigma;
  std::unordered_map<uint64_t, std::vector<Pattern>> seen_buckets;
  const std::vector<EdgePatternStat> seeds =
      FrequentEdgePatterns(g, mo.seed_edge_limit);
  VF2Matcher global_matcher(g);
  DmineStats dedup_stats;  // scratch for DedupCandidates' counters
  const bool prune = mo.enable_parent_prune;
  static const std::vector<NodeId> kNoOldSet;

  // This round's parents, with the index of each parent's entry in
  // `next.entries` (its freshly patched pools).
  std::vector<std::shared_ptr<MinedRule>> m_parents;
  std::vector<uint32_t> m_parent_entry;

  // The discovery skeleton below replays Dmine's coordinator loop verbatim
  // (same candidate stream, dedup, acceptance, incDiv and reduction calls),
  // with match evaluation swapped for evidence patching. Supports computed
  // here are exactly the full-probe values — locality carries unaffected
  // memberships, anti-monotone pools bound the rest — so the pass output is
  // byte-identical to Dmine on the current graph.
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
    std::vector<Gpar> candidates;
    std::vector<size_t> cand_parent;
    candidates.reserve(kept.size());
    cand_parent.reserve(kept.size());
    for (size_t idx : kept) {
      candidates.push_back(std::move(fresh[idx]));
      cand_parent.push_back(fresh_parent[idx]);
    }
    if (candidates.empty()) break;
    ps->candidates_evaluated += candidates.size();

    std::vector<char> other_ok(candidates.size(), 1);
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      for (const Pattern& comp : candidates[ci].other_components()) {
        ++ps->exists_calls;
        if (!global_matcher.Exists(comp)) {
          other_ok[ci] = 0;
          break;
        }
      }
    }

    for (const Gpar& r : candidates) {
      PNodeId prx = r.pr().x();
      plan_store.Prepare(r.pr(), {&prx, 1});
      PNodeId qx = r.x_component().x();
      plan_store.Prepare(r.x_component(), {&qx, 1});
    }

    std::vector<std::shared_ptr<MinedRule>> delta;
    std::vector<uint32_t> delta_entry;  // entry index per accepted rule

    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      const Gpar& r = candidates[ci];
      const uint32_t radius = r.eval_radius();

      // Pools: the parent's THIS-pass match sets (already exact), or the
      // round-0 pools for roots and the prune-off ablation. Note: spans
      // into entry vectors stay valid across `next.entries` growth — vector
      // reallocation moves the EvidenceEntry objects, which transfers the
      // inner buffers without touching their contents.
      const uint32_t parent_entry =
          (prune && cand_parent[ci] != kRootParent)
              ? m_parent_entry[cand_parent[ci]]
              : kEvidenceRoot;
      std::span<const NodeId> pr_pool =
          parent_entry != kEvidenceRoot
              ? std::span<const NodeId>(next.entries[parent_entry].pr_matches)
              : std::span<const NodeId>(next.q_pool);
      std::span<const NodeId> ant_pool =
          parent_entry != kEvidenceRoot
              ? std::span<const NodeId>(next.entries[parent_entry].ant_matches)
              : std::span<const NodeId>(next.qbar_pool);

      // Prior evidence for this exact pattern, if any (a fresh pattern —
      // new seed, shifted lineage — has none and is re-expanded over its
      // pool, which its parent has already narrowed).
      const EvidenceEntry* old_ev = nullptr;
      if (affected != nullptr) {
        auto it = index_.find(StructuralHash(r.pr()));
        if (it != index_.end()) {
          for (uint32_t ei : it->second) {
            if (evidence_.entries[ei].rule == r) {
              old_ev = &evidence_.entries[ei];
              break;
            }
          }
        }
      }
      if (old_ev != nullptr) {
        ++ps->rules_patched;
      } else {
        ++ps->rules_reexpanded;
      }

      // Membership of `c` in pattern `p` (eval radius <= `radius`): probe
      // when the center sits inside the affected region at that radius or
      // there is no evidence to carry; otherwise G_radius(c) is unchanged
      // and the prior pass's answer stands (locality, Section 5.1).
      auto membership = [&](NodeId c, const Pattern& p,
                            const std::vector<NodeId>& old_set,
                            bool have_old) -> bool {
        bool must_probe = !have_old;
        if (!must_probe) {
          auto it = affected->find(c);
          must_probe = it != affected->end() && it->second <= radius;
        }
        if (must_probe) {
          ++ps->centers_reprobed;
          ++ps->exists_calls;
          return matcher.ExistsAt(p, c);
        }
        ++ps->centers_carried;
        return std::binary_search(old_set.begin(), old_set.end(), c);
      };

      EvidenceEntry ent;
      ent.rule = r;
      ent.parent = parent_entry;
      auto rule = std::make_shared<MinedRule>();
      rule->rule = r;

      const bool have_pr = old_ev != nullptr;
      for (NodeId c : pr_pool) {
        if (membership(c, r.pr(), have_pr ? old_ev->pr_matches : kNoOldSet,
                       have_pr)) {
          ent.pr_matches.push_back(c);
        }
      }
      rule->supp = ent.pr_matches.size();
      rule->matches = ent.pr_matches;
      rule->extendable = rule->supp > 0;
      rule->uconf_plus = UConfPlus(rule->supp, supp_qbar, supp_q);

      if (other_ok[ci]) {
        ent.ant_probed = true;
        const bool have_ant = old_ev != nullptr && old_ev->ant_probed;
        for (NodeId c : ant_pool) {
          if (membership(c, r.x_component(),
                         have_ant ? old_ev->ant_matches : kNoOldSet,
                         have_ant)) {
            ent.ant_matches.push_back(c);
          }
        }
        rule->supp_qqbar = ent.ant_matches.size();
      }

      if (old_ev != nullptr) {
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
    const Graph& old_graph, std::shared_ptr<const Graph> new_graph,
    std::span<const EdgeInsert> applied,
    std::span<const EdgeDelete> applied_deletes) {
  if (new_graph == nullptr) return Status::InvalidArgument("null graph");
  MaintainStats ps;
  ps.edges_inserted = applied.size();
  ps.edges_deleted = applied_deletes.size();
  graph_ = std::move(new_graph);

  std::unordered_map<NodeId, uint32_t> affected;
  const std::unordered_map<NodeId, uint32_t>* affected_ptr = nullptr;
  if (options_.enable_incremental_maintenance) {
    // The shared re-probe frontier, at the mining radius: every generated
    // rule has eval_radius() <= mine.d, and the pools live at radius 1.
    const auto region = DeltaAffectedRegion(old_graph, *graph_, applied,
                                            applied_deletes, options_.mine.d);
    affected.reserve(region.size());
    for (const auto& [v, dist] : region) affected.emplace(v, dist);
    ps.affected_nodes = affected.size();
    affected_ptr = &affected;
  }
  GPAR_RETURN_NOT_OK(RefreshPass(affected_ptr, &ps));
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
  std::shared_ptr<const Graph> old = graph_;
  auto next = std::make_shared<const Graph>(std::move(patch.graph));
  return Advance(*old, std::move(next), patch.applied, patch.applied_deletes);
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
