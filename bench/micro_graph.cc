// Micro-benchmarks (google-benchmark) for the graph substrate: build,
// BFS d-neighborhoods, labeled adjacency lookups, and partitioning.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "graph/graph_builder.h"
#include "graph/neighborhood.h"
#include "graph/partition.h"

namespace {

using namespace gpar;
using namespace gpar::bench;

void BM_GraphBuild(benchmark::State& state) {
  for (auto _ : state) {
    Graph g = MakeSynthetic(5000, 15000, 50, 3);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GraphBuild);

void BM_DNeighborhoodExtract(benchmark::State& state) {
  Graph g = MakeSynthetic(20000, 60000, 50, 3);
  size_t i = 0;
  for (auto _ : state) {
    NodeId v = static_cast<NodeId>((i * 7919) % g.num_nodes());
    DNeighborhood dn = ExtractDNeighborhood(g, v, 2);
    benchmark::DoNotOptimize(dn.sub.graph.num_nodes());
    ++i;
  }
}
BENCHMARK(BM_DNeighborhoodExtract);

void BM_LabeledEdgeLookup(benchmark::State& state) {
  Graph g = MakeSynthetic(20000, 60000, 50, 3);
  LabelId l = g.labels().Lookup("e1");
  size_t i = 0;
  for (auto _ : state) {
    NodeId v = static_cast<NodeId>((i * 7919) % g.num_nodes());
    benchmark::DoNotOptimize(g.out_edges_labeled(v, l).size());
    ++i;
  }
}
BENCHMARK(BM_LabeledEdgeLookup);

void BM_HasEdge(benchmark::State& state) {
  Graph g = MakeSynthetic(20000, 60000, 50, 3);
  LabelId l = g.labels().Lookup("e0");
  size_t i = 0;
  for (auto _ : state) {
    NodeId v = static_cast<NodeId>((i * 7919) % g.num_nodes());
    NodeId w = static_cast<NodeId>((i * 104729) % g.num_nodes());
    benchmark::DoNotOptimize(g.HasEdge(v, l, w));
    ++i;
  }
}
BENCHMARK(BM_HasEdge);

void BM_PartitionGraph(benchmark::State& state) {
  Graph g = MakeSynthetic(10000, 30000, 50, 3);
  auto freq = FrequentEdgePatterns(g, 1);
  std::vector<NodeId> centers;
  {
    auto span = g.nodes_with_label(freq[0].src_label);
    centers.assign(span.begin(), span.end());
  }
  for (auto _ : state) {
    PartitionOptions opt;
    opt.num_fragments = static_cast<uint32_t>(state.range(0));
    opt.d = 2;
    auto parts = PartitionGraph(g, centers, opt);
    benchmark::DoNotOptimize(parts.ok());
  }
}
BENCHMARK(BM_PartitionGraph)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
