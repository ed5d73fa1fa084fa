#include "mine/dmine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "graph/partition.h"
#include "match/matcher.h"
#include "mine/inc_div.h"
#include "mine/reduction.h"
#include "pattern/automorphism.h"
#include "pattern/bisimulation.h"
#include "pattern/pattern_ops.h"
#include "rule/diversity.h"
#include "rule/match_delta.h"
#include "rule/metrics.h"

namespace gpar {

DmineOptions DmineNoOptions(DmineOptions base) {
  base.enable_incremental_div = false;
  base.enable_reduction_rules = false;
  base.enable_bisim_prefilter = false;
  return base;
}

std::vector<Gpar> GenerateExtensions(const Pattern& antecedent,
                                     LabelId q_label, uint32_t d,
                                     uint32_t max_edges,
                                     const std::vector<EdgePatternStat>& seeds) {
  std::vector<Gpar> out;
  if (antecedent.num_edges() >= max_edges) return out;

  // Distances are measured on P_R (antecedent + consequent edge): node ids
  // of the antecedent are unchanged in P_R.
  Pattern pr = antecedent;
  pr.AddEdge(antecedent.x(), q_label, antecedent.y());
  std::vector<uint32_t> dist = DistancesFrom(pr, pr.x());

  auto emit = [&](const Extension& ext) {
    Pattern grown = ApplyExtension(antecedent, ext);
    auto r = Gpar::Create(std::move(grown), q_label);
    // Enforce the radius bound on P_R *and* on the antecedent's
    // x-component (the latter keeps fragment-local antecedent matching
    // exact with d-hop partitions; see Gpar::eval_radius).
    if (r.ok() && r.value().eval_radius() <= d) {
      out.push_back(std::move(r).value());
    }
  };

  // Forward extensions: attach a new node to any node within hop d-1 of x,
  // so the new node stays within radius d.
  for (PNodeId u = 0; u < antecedent.num_nodes(); ++u) {
    if (dist[u] >= d) continue;
    const LabelId ul = antecedent.node(u).label;
    for (const EdgePatternStat& s : seeds) {
      if (s.src_label == ul) {
        emit({u, /*out=*/true, s.edge_label, s.dst_label, kNoPatternNode});
      }
      if (s.dst_label == ul) {
        emit({u, /*out=*/false, s.edge_label, s.src_label, kNoPatternNode});
      }
    }
  }

  // Backward extensions: a new edge between existing nodes (never grows
  // the radius).
  for (PNodeId u = 0; u < antecedent.num_nodes(); ++u) {
    for (PNodeId w = 0; w < antecedent.num_nodes(); ++w) {
      if (u == w) continue;
      const LabelId ul = antecedent.node(u).label;
      const LabelId wl = antecedent.node(w).label;
      for (const EdgePatternStat& s : seeds) {
        if (s.src_label != ul || s.dst_label != wl) continue;
        // Skip duplicates of existing edges and of the consequent itself.
        if (u == antecedent.x() && w == antecedent.y() &&
            s.edge_label == q_label) {
          continue;
        }
        bool exists = false;
        for (const PatternEdge& e : antecedent.edges()) {
          if (e.src == u && e.dst == w && e.label == s.edge_label) {
            exists = true;
            break;
          }
        }
        if (!exists) {
          emit({u, /*out=*/true, s.edge_label, kNoLabel, w});
        }
      }
    }
  }
  return out;
}

namespace {

/// Per-worker evaluation context over one fragment.
struct WorkerState {
  const Fragment* frag = nullptr;
  std::unique_ptr<VF2Matcher> matcher;
  std::vector<uint32_t> q_centers;     // center indices in P_q(x, ·)
  std::vector<uint32_t> qbar_centers;  // center indices in the ~q pool
  uint64_t supp_q_local = 0;
  uint64_t supp_qbar_local = 0;
  uint64_t exists_calls = 0;
  uint64_t centers_skipped = 0;
  uint64_t evidence_bytes_full = 0;
  uint64_t evidence_bytes_delta = 0;
};

/// Local statistics for one candidate GPAR at one fragment.
struct LocalStats {
  uint64_t supp_r = 0;
  uint64_t supp_qqbar = 0;
  bool extendable = false;
  std::vector<NodeId> matches_global;
  // Parent sets handed to this candidate's own extensions (collected only
  // under enable_parent_prune; ascending center indices). Scratch while the
  // worker probes; the message to the coordinator ships the delta forms.
  std::vector<uint32_t> pr_centers;
  std::vector<uint32_t> ant_centers;
  // The lineage sets as shipped: deltas against the pool each side was
  // probed from (anti-monotone subsets — see match_delta.h). The
  // coordinator decodes them against the same pools; DmineStats accounts
  // the bytes this saves over raw center lists.
  MatchSetDelta pr_delta;
  MatchSetDelta ant_delta;
};

// Serialized size of one shipped lineage delta (u8 mode + u32 count +
// count x u32 — the PutMatchSetDelta wire form).
uint64_t DeltaWireBytes(const MatchSetDelta& d) {
  return 1 + 4 + 4 * static_cast<uint64_t>(d.payload.size());
}

}  // namespace

std::vector<CandidateProposal> MergeProposals(
    std::vector<std::vector<CandidateProposal>> per_worker,
    DmineStats* stats) {
  // (parent, ext_ordinal) is an exact identity: GenerateExtensions is
  // deterministic, so two fragments proposing the same key materialized the
  // same grown pattern. Re-sorting by that key recovers the sequential
  // emission order — parents in round-list order, ordinals in generation
  // order — so the downstream dedup/cap stream does not depend on which
  // fragment proposed what. This is coordinator critical-path code: sort
  // lightweight indices, not the Gpar-carrying proposals, and move each
  // surviving proposal exactly once.
  size_t total = 0;
  for (const auto& worker : per_worker) total += worker.size();
  std::vector<CandidateProposal> flat;
  flat.reserve(total);
  for (std::vector<CandidateProposal>& worker : per_worker) {
    for (CandidateProposal& p : worker) flat.push_back(std::move(p));
  }
  std::vector<size_t> order(flat.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Stable: among duplicate keys the earliest-worker proposal wins. The
  // checksum tiebreaker keeps equal-checksum duplicates adjacent even when
  // a mismatched proposal shares their key (the double-propose bug state),
  // so the single out.back() comparison below collapses every true
  // duplicate; in healthy runs keys are unique and the tiebreaker is inert.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (flat[a].parent != flat[b].parent) {
      return flat[a].parent < flat[b].parent;
    }
    if (flat[a].ext_ordinal != flat[b].ext_ordinal) {
      return flat[a].ext_ordinal < flat[b].ext_ordinal;
    }
    return flat[a].structural_hash < flat[b].structural_hash;
  });
  std::vector<CandidateProposal> out;
  out.reserve(flat.size());
  for (size_t idx : order) {
    CandidateProposal& p = flat[idx];
    if (!out.empty() && out.back().parent == p.parent &&
        out.back().ext_ordinal == p.ext_ordinal &&
        out.back().structural_hash == p.structural_hash) {
      out.back().local_evidence += p.local_evidence;
      ++stats->cross_fragment_merged;
    } else {
      // Distinct key — or a checksum mismatch on an equal key, which means
      // the proposals do NOT denote the same grown pattern (an ownership or
      // enumeration bug): keep both rather than silently dropping a rule;
      // the automorphism dedup downstream decides with exact tests.
      out.push_back(std::move(p));
    }
  }
  return out;
}

std::vector<size_t> DedupCandidates(
    const std::vector<Gpar>& fresh, size_t max_keep,
    std::unordered_map<uint64_t, std::vector<Pattern>>* seen_buckets,
    bool bisim_prefilter, DmineStats* stats) {
  std::vector<size_t> kept;
  for (size_t idx = 0; idx < fresh.size() && kept.size() < max_keep; ++idx) {
    const Gpar& g = fresh[idx];
    auto& bucket = (*seen_buckets)[IsomorphismBucketHash(g.pr())];
    bool duplicate = false;
    for (const Pattern& p : bucket) {
      if (bisim_prefilter) {
        ++stats->bisim_tests;
        // Lemma 4: not bisimilar => not automorphic; skip the exact test.
        if (!AreBisimilarDesignated(p, g.pr())) continue;
      }
      ++stats->iso_tests;
      if (AreIsomorphic(p, g.pr(), /*preserve_designated=*/true)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++stats->automorphic_merged;
      continue;
    }
    bucket.push_back(g.pr());
    kept.push_back(idx);
  }
  return kept;
}

Result<DmineResult> Dmine(const Graph& g, const Predicate& q,
                          const DmineOptions& options) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.k < 2) {
    return Status::InvalidArgument("k must be at least 2");
  }
  if (options.d == 0) {
    return Status::InvalidArgument("d must be at least 1");
  }

  DmineResult result;
  BspRuntime bsp(options.num_workers);

  // --- Setup: candidates, fragments, seed alphabet. -----------------------
  std::vector<NodeId> centers;
  {
    auto span = g.nodes_with_label(q.x_label);
    centers.assign(span.begin(), span.end());
  }
  PartitionOptions popt;
  popt.num_fragments = options.num_workers;
  popt.d = options.d;
  GPAR_ASSIGN_OR_RETURN(Partitioning parts, PartitionGraph(g, centers, popt));

  std::vector<EdgePatternStat> seeds =
      FrequentEdgePatterns(g, options.seed_edge_limit);

  std::vector<WorkerState> workers(options.num_workers);
  const Pattern pq = q.ToPattern();

  // Shared search-plan store: the coordinator plans each round's patterns
  // once; worker matchers consult it read-only during rounds (patterns are
  // identical across fragments, so per-worker planning is pure redundancy).
  SearchPlanStore plan_store(g);
  bsp.RunCoordinator([&] {
    PNodeId px = pq.x();
    plan_store.Prepare(pq, {&px, 1});
  });

  // Round 0: per-fragment matcher construction and the q / ~q sets, which
  // "never change and hence are derived once for all". Fragments are views
  // over the parent CSR, so matching runs directly on global ids.
  bsp.RunRound([&](uint32_t i) {
    WorkerState& w = workers[i];
    w.frag = &parts.fragments[i];
    w.matcher = std::make_unique<VF2Matcher>(w.frag->view);
    w.matcher->set_plan_store(&plan_store);
    const size_t nc = w.frag->centers.size();
    for (size_t c = 0; c < nc; ++c) {
      const NodeId global = w.frag->centers[c];
      ++w.exists_calls;
      if (w.matcher->ExistsAt(pq, global)) {
        w.q_centers.push_back(static_cast<uint32_t>(c));
        ++w.supp_q_local;
      } else if (w.frag->view.HasOutLabel(global, q.edge_label)) {
        w.qbar_centers.push_back(static_cast<uint32_t>(c));
        ++w.supp_qbar_local;
      }
    }
  });

  uint64_t supp_q = 0, supp_qbar = 0;
  for (const WorkerState& w : workers) {
    supp_q += w.supp_q_local;
    supp_qbar += w.supp_qbar_local;
  }
  result.stats.supp_q = supp_q;
  result.stats.supp_qbar = supp_qbar;

  // Trivial case: q(x, y) names no one in G — no interesting GPARs exist.
  // Degenerate case: no ~q "negative" pool (every x-candidate with a q-edge
  // already satisfies q). Every discovered rule would have supp(Q~q) = 0 —
  // a trivial logic rule the paper discards — so mining finds nothing, and
  // returning early keeps n_norm = supp_q * supp_qbar = 0 away from the
  // objective's division paths (which are additionally guarded in
  // FPrime/ObjectiveF).
  if (supp_q == 0 || supp_qbar == 0) {
    for (const WorkerState& w : workers) {
      result.stats.exists_calls += w.exists_calls;
      result.stats.plans_shared_hits += w.matcher->plan_store_hits();
    }
    result.stats.plans_prepared = plan_store.patterns_planned();
    result.times = bsp.FinishTiming();
    return result;
  }
  const double n_norm =
      static_cast<double>(supp_q) * static_cast<double>(supp_qbar);

  // incDiv ranks match sets over P_q(x, G), gathered from the workers.
  std::vector<NodeId> q_pool;
  q_pool.reserve(supp_q);
  for (const WorkerState& w : workers) {
    for (uint32_t c : w.q_centers) q_pool.push_back(w.frag->centers[c]);
  }
  std::sort(q_pool.begin(), q_pool.end());
  IncDiv incdiv(options.k, options.lambda, n_norm, std::move(q_pool));
  std::vector<std::shared_ptr<MinedRule>> sigma;  // Σ
  std::unordered_map<uint64_t, std::vector<Pattern>> seen_buckets;

  // M: the rules to extend next round, each carrying its per-fragment match
  // sets — the parent pools the workers restrict to. Round 1 extends the
  // base "rule", bare q(x, y): an antecedent with just the designated nodes
  // and no edges, whose pools are the round-0 q / ~q center sets.
  Pattern base;
  {
    PNodeId x = base.AddNode(q.x_label);
    PNodeId y = base.AddNode(q.y_label);
    base.set_x(x);
    base.set_y(y);
  }
  std::vector<std::shared_ptr<MinedRule>> m_parents;

  // A full-graph matcher for the (rare) antecedent components that do not
  // contain x: their matches can live anywhere in G, so the coordinator
  // checks their satisfiability once per candidate rule.
  VF2Matcher global_matcher(g);

  // With parent pruning, a candidate is only probed at the centers where
  // its parent rule matched (per fragment, per side): anti-monotonicity
  // guarantees every other center fails, so skipping it cannot change any
  // support. Without pruning (ablation), every candidate re-tests the
  // full round-0 pools — the pre-lineage cost structure.
  const bool prune = options.enable_parent_prune;

  // Each round grows antecedents by one edge (radius capped at d by the
  // generator), up to max_pattern_edges edges — the levelwise structure of
  // DMine with the growth alphabet of seed edge patterns.
  for (uint32_t round = 1;
       round <= options.max_pattern_edges &&
       (round == 1 || !m_parents.empty());
       ++round) {
    // --- Workers: propose this round's extensions. Round 1 extends the
    // bare predicate (one root parent); later rounds extend M. A parent may
    // survive in several fragments (its lineage matched there; without
    // lineage, the fragment's q-pool is non-empty), and each would
    // enumerate the identical deterministic extension set, so exactly one —
    // round-robin over the survivors by parent index, for balance —
    // materializes and ships the proposals. Each worker derives the
    // assignment locally from the broadcast lineage (no extra coordinator
    // round). Every extendable parent survives somewhere; correctness only
    // needs one deterministic owner per parent, so a survivor-free parent
    // would still be assigned soundly.
    const double merge_start = bsp.times().coordinator_seconds;
    const bool root_round = round == 1;
    const size_t num_parents = root_round ? 1 : m_parents.size();
    auto proposals = bsp.RunRound([&](uint32_t wi) {
      auto survives = [&](size_t pi, uint32_t j) {
        return prune && !root_round
                   ? !m_parents[pi]->frag_pr_centers[j].empty()
                   : !workers[j].q_centers.empty();
      };
      std::vector<CandidateProposal> out;
      for (size_t pi = 0; pi < num_parents; ++pi) {
        uint32_t count = 0;
        for (uint32_t j = 0; j < options.num_workers; ++j) {
          if (survives(pi, j)) ++count;
        }
        uint32_t owner = static_cast<uint32_t>(pi % options.num_workers);
        if (count > 0) {
          uint32_t target = static_cast<uint32_t>(pi % count);
          for (uint32_t j = 0; j < options.num_workers; ++j) {
            if (!survives(pi, j)) continue;
            if (target == 0) {
              owner = j;
              break;
            }
            --target;
          }
        }
        if (owner != wi) continue;
        const Pattern& ant =
            root_round ? base : m_parents[pi]->rule.antecedent();
        const size_t evidence =
            prune && !root_round ? m_parents[pi]->frag_pr_centers[wi].size()
                                 : workers[wi].q_centers.size();
        std::vector<Gpar> ext = GenerateExtensions(
            ant, q.edge_label, options.d, options.max_pattern_edges, seeds);
        for (uint32_t e = 0; e < ext.size(); ++e) {
          CandidateProposal p;
          p.parent = root_round ? kRootParent : pi;
          p.ext_ordinal = e;
          p.structural_hash = StructuralHash(ext[e].pr());
          p.local_evidence = static_cast<uint32_t>(evidence);
          p.rule = std::move(ext[e]);
          out.push_back(std::move(p));
        }
      }
      return out;
    });

    // --- Coordinator: merge cross-fragment duplicate proposals (a tripwire:
    // `cross_fragment_merged` stays 0 unless the assignment ever
    // double-proposes), then automorphism dedup + cap + global component
    // check. coordinator_merge_seconds isolates this candidate-production
    // share of the coordinator from assembly/incDiv.
    std::vector<Gpar> candidates;
    std::vector<size_t> cand_parent;  // per candidate: m_parents index
    std::vector<char> other_ok;  // per candidate: non-x components matchable
    bsp.RunCoordinator([&] {
      if (result.stats.proposals_per_worker.empty()) {
        result.stats.proposals_per_worker.assign(options.num_workers, 0);
      }
      for (uint32_t i = 0; i < options.num_workers; ++i) {
        result.stats.proposals_per_worker[i] += proposals[i].size();
      }
      std::vector<CandidateProposal> merged =
          MergeProposals(std::move(proposals), &result.stats);
      result.stats.candidates_generated += merged.size();
      std::vector<Gpar> fresh;
      fresh.reserve(merged.size());
      for (CandidateProposal& p : merged) fresh.push_back(std::move(p.rule));
      std::vector<size_t> kept = DedupCandidates(
          fresh, options.max_candidates_per_round, &seen_buckets,
          options.enable_bisim_prefilter, &result.stats);
      candidates.reserve(kept.size());
      cand_parent.reserve(kept.size());
      for (size_t idx : kept) {
        candidates.push_back(std::move(fresh[idx]));
        cand_parent.push_back(merged[idx].parent);
      }
      result.stats.candidates_verified += candidates.size();
      other_ok.assign(candidates.size(), 1);
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        for (const Pattern& comp : candidates[ci].other_components()) {
          if (!global_matcher.Exists(comp)) {
            other_ok[ci] = 0;
            break;
          }
        }
      }
    });
    result.stats.coordinator_merge_seconds +=
        bsp.times().coordinator_seconds - merge_start;
    if (candidates.empty()) break;

    // Plan this round's patterns once into the shared store (outside the
    // merge-seconds window). Workers then probe P_R and the antecedent's
    // x-component anchored at x with store-served plans.
    bsp.RunCoordinator([&] {
      for (const Gpar& r : candidates) {
        PNodeId prx = r.pr().x();
        plan_store.Prepare(r.pr(), {&prx, 1});
        PNodeId qx = r.x_component().x();
        plan_store.Prepare(r.x_component(), {&qx, 1});
      }
    });

    // --- Workers: local support counting over owned centers. -------------
    std::vector<std::vector<LocalStats>> local(options.num_workers);
    bsp.RunRound([&](uint32_t i) {
      WorkerState& w = workers[i];
      local[i].assign(candidates.size(), {});
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        const Gpar& r = candidates[ci];
        LocalStats& ls = local[i][ci];
        const MinedRule* parent = nullptr;
        if (prune && cand_parent[ci] != kRootParent) {
          parent = m_parents[cand_parent[ci]].get();
        }
        // P_R matches live inside the q-match pool (or the parent's
        // surviving subset of it).
        std::span<const uint32_t> pr_pool =
            parent ? std::span<const uint32_t>(parent->frag_pr_centers[i])
                   : std::span<const uint32_t>(w.q_centers);
        w.centers_skipped += w.q_centers.size() - pr_pool.size();
        for (uint32_t c : pr_pool) {
          const NodeId global = w.frag->centers[c];
          ++w.exists_calls;
          if (w.matcher->ExistsAt(r.pr(), global)) {
            ++ls.supp_r;
            ls.matches_global.push_back(global);
            ls.extendable = true;
            if (prune) ls.pr_centers.push_back(c);
          }
        }
        // Antecedent membership: x-component locally (exact within the
        // d-hop fragment), remaining components pre-checked globally.
        std::span<const uint32_t> ant_pool =
            parent ? std::span<const uint32_t>(parent->frag_ant_centers[i])
                   : std::span<const uint32_t>(w.qbar_centers);
        if (other_ok[ci]) {
          w.centers_skipped += w.qbar_centers.size() - ant_pool.size();
          for (uint32_t c : ant_pool) {
            ++w.exists_calls;
            if (w.matcher->ExistsAt(r.x_component(), w.frag->centers[c])) {
              ++ls.supp_qqbar;
              if (prune) ls.ant_centers.push_back(c);
            }
          }
        }
        if (prune) {
          // Ship the lineage as deltas against the probed pools (the
          // match-set-delta BSP message); the coordinator decodes against
          // the identical pools at assembly.
          ls.pr_delta = EncodeMatchSet(ls.pr_centers, pr_pool);
          ls.ant_delta = EncodeMatchSet(ls.ant_centers, ant_pool);
          w.evidence_bytes_full += FullEncodedBytes(ls.pr_centers.size()) +
                                   FullEncodedBytes(ls.ant_centers.size());
          w.evidence_bytes_delta +=
              DeltaWireBytes(ls.pr_delta) + DeltaWireBytes(ls.ant_delta);
          ls.pr_centers = {};
          ls.ant_centers = {};
        }
      }
    });

    // --- Coordinator: assemble, filter, diversify, reduce. ---------------
    std::vector<std::shared_ptr<MinedRule>> delta;
    bsp.RunCoordinator([&] {
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        auto rule = std::make_shared<MinedRule>();
        rule->rule = candidates[ci];
        const MinedRule* parent = nullptr;
        if (prune && cand_parent[ci] != kRootParent) {
          parent = m_parents[cand_parent[ci]].get();
        }
        if (prune) {
          rule->frag_pr_centers.resize(options.num_workers);
          rule->frag_ant_centers.resize(options.num_workers);
        }
        for (uint32_t i = 0; i < options.num_workers; ++i) {
          LocalStats& ls = local[i][ci];
          rule->supp += ls.supp_r;
          rule->supp_qqbar += ls.supp_qqbar;
          rule->extendable = rule->extendable || ls.extendable;
          rule->matches.insert(rule->matches.end(), ls.matches_global.begin(),
                               ls.matches_global.end());
          if (prune) {
            // Decode the shipped lineage deltas against the same pools the
            // worker encoded them from. The round trip is exact (the worker
            // encoded a true subset), so lineage is byte-identical to the
            // pre-delta raw lists.
            std::span<const uint32_t> pr_pool =
                parent ? std::span<const uint32_t>(parent->frag_pr_centers[i])
                       : std::span<const uint32_t>(workers[i].q_centers);
            std::span<const uint32_t> ant_pool =
                parent ? std::span<const uint32_t>(parent->frag_ant_centers[i])
                       : std::span<const uint32_t>(workers[i].qbar_centers);
            auto pr = DecodeMatchSet(ls.pr_delta, pr_pool);
            auto ant = DecodeMatchSet(ls.ant_delta, ant_pool);
            rule->frag_pr_centers[i] = std::move(pr).value();
            rule->frag_ant_centers[i] = std::move(ant).value();
          }
        }
        std::sort(rule->matches.begin(), rule->matches.end());
        // Anti-monotonicity makes supp a sound Usupp bound (Lemma 3): any
        // extension matches a subset of these centers.
        rule->uconf_plus = UConfPlus(rule->supp, supp_qbar, supp_q);
        if (rule->supp < options.sigma) continue;
        if (rule->supp_qqbar == 0) {
          // Trivial "logic rule": holds on all of Q(x, G); discarded per
          // the paper's trivial-GPAR handling.
          ++result.stats.trivial_discarded;
          continue;
        }
        rule->conf =
            BayesFactorConf(rule->supp, supp_qbar, rule->supp_qqbar, supp_q);
        delta.push_back(std::move(rule));
      }
      result.stats.accepted += delta.size();
      sigma.insert(sigma.end(), delta.begin(), delta.end());

      if (options.enable_incremental_div) {
        incdiv.AddRound(delta, sigma);
        if (options.enable_reduction_rules) {
          ReductionStats rs = ApplyReductionRules(
              sigma, delta, incdiv.MinPairFPrime(), options.lambda, n_norm,
              options.k,
              [&](const MinedRule* r) { return incdiv.InQueue(r); });
          result.stats.pruned_by_reduction += rs.pruned_sigma + rs.pruned_delta;
        }
      } else {
        // DMineno recomputes the diversified top-k from scratch every round
        // instead of maintaining it incrementally — the cost the paper's
        // Exp-1 ablation measures.
        result.topk =
            FullDiversify(sigma, options.k, options.lambda, n_norm);
      }

      // Next round's M: extendable, unpruned survivors of this round. The
      // outgoing parents' match sets have served their one round; release
      // them (Σ keeps the rules themselves alive for diversification).
      for (const auto& p : m_parents) {
        p->frag_pr_centers = {};
        p->frag_ant_centers = {};
      }
      m_parents.clear();
      for (const auto& r : delta) {
        if (!r->extendable || r->pruned ||
            r->rule.antecedent().num_edges() >= options.max_pattern_edges) {
          r->frag_pr_centers = {};
          r->frag_ant_centers = {};
          continue;
        }
        m_parents.push_back(r);
      }
    });
  }
  for (const auto& p : m_parents) {
    p->frag_pr_centers = {};
    p->frag_ant_centers = {};
  }

  bsp.RunCoordinator([&] {
    if (options.enable_incremental_div) {
      result.topk = incdiv.TopK();
      result.objective = incdiv.Objective();
    } else {
      // DMineno path: diversify the full pool from scratch.
      result.topk =
          FullDiversify(sigma, options.k, options.lambda, n_norm);
      std::vector<double> confs;
      std::vector<const std::vector<NodeId>*> sets;
      for (const auto& r : result.topk) {
        confs.push_back(r->conf);
        sets.push_back(&r->matches);
      }
      result.objective =
          ObjectiveF(confs, sets, options.lambda, n_norm, options.k);
    }
  });

  for (const WorkerState& w : workers) {
    result.stats.exists_calls += w.exists_calls;
    result.stats.centers_skipped_by_parent += w.centers_skipped;
    result.stats.plans_shared_hits += w.matcher->plan_store_hits();
    result.stats.evidence_bytes_full += w.evidence_bytes_full;
    result.stats.evidence_bytes_delta += w.evidence_bytes_delta;
  }
  result.stats.plans_prepared = plan_store.patterns_planned();
  result.times = bsp.FinishTiming();
  return result;
}

}  // namespace gpar
