#ifndef GPAR_RULE_DIVERSITY_H_
#define GPAR_RULE_DIVERSITY_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gpar {

/// diff(R1, R2): Jaccard distance of the rules' match sets P_R(x, G)
/// (Section 4.1). Inputs must be sorted. Two empty sets have distance 0
/// (identical social groups).
double JaccardDistance(const std::vector<NodeId>& a_sorted,
                       const std::vector<NodeId>& b_sorted);

/// A sorted set as a bitset over the sorted `universe` that contains it:
/// bit i stands for universe[i]. Trailing zero words are dropped, so the
/// size is at most ⌈|universe|/64⌉ words.
std::vector<uint64_t> RankBits(const std::vector<NodeId>& sorted_set,
                               const std::vector<NodeId>& universe);

/// JaccardDistance of two sets given as `RankBits` over one universe, with
/// their sizes. The intersection is a popcount and the union and division
/// are the merge's, so the result equals JaccardDistance bit for bit.
double BitsetJaccardDistance(const std::vector<uint64_t>& a, size_t a_size,
                             const std::vector<uint64_t>& b, size_t b_size);

/// The diversification objective F(L_k) of Section 4.1 (max-sum
/// diversification, after [19]):
///   (1-λ) Σ_i conf(R_i)/N  +  (2λ/(k-1)) Σ_{i<j} diff(R_i, R_j)
/// `N` normalizes confidence: N = supp(q, G) * supp(~q, G).
double ObjectiveF(const std::vector<double>& confs,
                  const std::vector<const std::vector<NodeId>*>& match_sets,
                  double lambda, double n_norm, uint32_t k);

/// The pairwise objective used by incDiv (Section 4.2):
///   F'(R, R') = (1-λ)/(N(k-1)) (conf(R)+conf(R')) + (2λ/(k-1)) diff(R, R').
double FPrime(double conf1, double conf2, double diff, double lambda,
              double n_norm, uint32_t k);

}  // namespace gpar

#endif  // GPAR_RULE_DIVERSITY_H_
