// Traced-mode replays: layer calls a workload does not make itself (or
// makes only inside another layer), re-run standalone on the workload's
// own inputs so each layer gets its own number.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "rule/gpar.h"

namespace perfbench {

/// `PartitionGraph` of `centers` into `fragments` at radius `d`:
/// graph.partition_s and graph.partition_mb.
void ReplayPartition(Tracer& tracer, const gpar::Graph& g,
                     const std::vector<gpar::NodeId>& centers, uint32_t d,
                     uint32_t fragments, Report& report);

/// `Matcher::ExistsAt` with the guided matcher the serving and
/// identification paths use, over a fixed sample of (rule, center) pairs
/// (after one warm pass): match.exists_us, the median per call.
void ReplayExistsAt(Tracer& tracer, const gpar::Graph& g,
                    const std::vector<gpar::Gpar>& sigma,
                    const std::vector<gpar::NodeId>& centers,
                    uint32_t sketch_hops, Report& report);

/// `PatchGraph`, `DeltaAffectedRegion` and a standalone
/// `DeltaJournal::Append` (fsync off) over `batches` in order from `g`:
/// graph.patch_ms, graph.affected_frac and serve.journal_append_ms, each a
/// median per batch. The journal is written to `journal_path`.
void ReplayDeltaLayers(Tracer& tracer, const gpar::Graph& g,
                       const std::vector<gpar::GraphDelta>& batches,
                       uint32_t radius, const std::string& journal_path,
                       Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
