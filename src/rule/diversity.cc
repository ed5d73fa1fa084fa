#include "rule/diversity.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace gpar {

double JaccardDistance(const std::vector<NodeId>& a_sorted,
                       const std::vector<NodeId>& b_sorted) {
  if (a_sorted.empty() && b_sorted.empty()) return 0;
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a_sorted.size() && j < b_sorted.size()) {
    if (a_sorted[i] < b_sorted[j]) {
      ++i;
    } else if (a_sorted[i] > b_sorted[j]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  size_t uni = a_sorted.size() + b_sorted.size() - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

std::vector<uint64_t> RankBits(const std::vector<NodeId>& sorted_set,
                               const std::vector<NodeId>& universe) {
  std::vector<uint64_t> bits;
  auto from = universe.begin();
  for (NodeId v : sorted_set) {
    from = std::lower_bound(from, universe.end(), v);
    assert(from != universe.end() && *from == v);
    const size_t i = static_cast<size_t>(from - universe.begin());
    if (bits.size() <= i / 64) bits.resize(i / 64 + 1, 0);
    bits[i / 64] |= uint64_t{1} << (i % 64);
  }
  return bits;
}

double BitsetJaccardDistance(const std::vector<uint64_t>& a, size_t a_size,
                             const std::vector<uint64_t>& b, size_t b_size) {
  if (a_size == 0 && b_size == 0) return 0;
  size_t inter = 0;
  const size_t words = std::min(a.size(), b.size());
  for (size_t w = 0; w < words; ++w) inter += std::popcount(a[w] & b[w]);
  const size_t uni = a_size + b_size - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

double ObjectiveF(const std::vector<double>& confs,
                  const std::vector<const std::vector<NodeId>*>& match_sets,
                  double lambda, double n_norm, uint32_t k) {
  double conf_sum = 0;
  for (double c : confs) conf_sum += c;
  double diff_sum = 0;
  for (size_t i = 0; i < match_sets.size(); ++i) {
    for (size_t j = i + 1; j < match_sets.size(); ++j) {
      diff_sum += JaccardDistance(*match_sets[i], *match_sets[j]);
    }
  }
  // A degenerate normalizer (supp_q or supp_~q = 0 makes N = 0) or
  // non-finite confidence sum (trivial logic rules have conf = +inf) zeroes
  // the confidence term instead of emitting NaN/inf — in particular
  // (1-λ)·inf is NaN at λ = 1. Ranking then falls back to diversity alone.
  double conf_term = 0;
  if (n_norm > 0 && lambda < 1.0 && std::isfinite(conf_sum)) {
    conf_term = (1.0 - lambda) * conf_sum / n_norm;
  }
  double div_term = k > 1 ? 2.0 * lambda / (k - 1) * diff_sum : 0;
  return conf_term + div_term;
}

double FPrime(double conf1, double conf2, double diff, double lambda,
              double n_norm, uint32_t k) {
  if (k <= 1) return 0;
  // Same degeneracy guards as ObjectiveF's confidence term: with N = 0 the
  // diversity term still ranks pairs (the old code returned a flat 0 here,
  // collapsing the queue order entirely).
  double conf_term = 0;
  const double conf_sum = conf1 + conf2;
  if (n_norm > 0 && lambda < 1.0 && std::isfinite(conf_sum)) {
    conf_term = (1.0 - lambda) / (n_norm * (k - 1)) * conf_sum;
  }
  return conf_term + 2.0 * lambda / (k - 1) * diff;
}

}  // namespace gpar
