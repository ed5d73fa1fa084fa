#include "layers.h"

#include <cstdio>
#include <memory>

#include "graph/partition.h"
#include "match/guided.h"
#include "serve/delta_journal.h"

namespace perfbench {

void ReplayPartition(Tracer& tracer, const gpar::Graph& g,
                     const std::vector<gpar::NodeId>& centers, uint32_t d,
                     uint32_t fragments, Report& report) {
  gpar::PartitionOptions opt;
  opt.num_fragments = fragments;
  opt.d = d;
  const int64_t t0 = Tracer::NowNs();
  Tracer::Scope span(tracer, "graph.PartitionGraph");
  auto parts = gpar::PartitionGraph(g, centers, opt);
  const double secs = Secs(t0, Tracer::NowNs());
  if (!parts.ok()) {
    report.Check(false, "PartitionGraph: " + parts.status().ToString());
    return;
  }
  report.Metric("graph.partition_s", secs, "s");
  report.Metric("graph.partition_mb",
                static_cast<double>(gpar::PartitionMemoryBytes(*parts)) /
                    (1 << 20),
                "MB");
}

void ReplayExistsAt(Tracer& tracer, const gpar::Graph& g,
                    const std::vector<gpar::Gpar>& sigma,
                    const std::vector<gpar::NodeId>& centers,
                    uint32_t sketch_hops, Report& report) {
  constexpr size_t kSampleCenters = 64;
  std::vector<gpar::NodeId> sample;
  for (size_t i = 0; i < kSampleCenters && !centers.empty(); ++i) {
    sample.push_back(centers[i * centers.size() / kSampleCenters]);
  }
  gpar::GuidedMatcher matcher(g, sketch_hops);
  Tracer::Scope span(tracer, "match.ExistsAt");
  for (const gpar::Gpar& r : sigma) {  // warm pass: plans and sketches
    for (gpar::NodeId c : sample) matcher.ExistsAt(r.antecedent(), c);
  }
  std::vector<double> us;
  for (const gpar::Gpar& r : sigma) {
    for (gpar::NodeId c : sample) {
      int64_t t0 = Tracer::NowNs();
      matcher.ExistsAt(r.antecedent(), c);
      us.push_back(static_cast<double>(Tracer::NowNs() - t0) * 1e-3);
    }
  }
  report.Metric("match.exists_us", Median(us), "us");
}

void ReplayDeltaLayers(Tracer& tracer, const gpar::Graph& g,
                       const std::vector<gpar::GraphDelta>& batches,
                       uint32_t radius, const std::string& journal_path,
                       Report& report) {
  std::remove(journal_path.c_str());
  auto journal = gpar::DeltaJournal::Open(journal_path);
  if (!journal.ok()) {
    report.Check(false, "journal open: " + journal.status().ToString());
    return;
  }
  std::vector<double> patch_ms, affected, append_ms;
  auto cur = std::make_shared<const gpar::Graph>(g);
  for (const gpar::GraphDelta& d : batches) {
    int64_t t0 = Tracer::NowNs();
    gpar::Result<gpar::GraphPatch> patch = gpar::Status::Internal("none");
    {
      Tracer::Scope span(tracer, "graph.PatchGraph");
      patch = gpar::PatchGraph(*cur, d);
    }
    int64_t t1 = Tracer::NowNs();
    if (!patch.ok()) {
      report.Check(false, "PatchGraph: " + patch.status().ToString());
      return;
    }
    patch_ms.push_back(Secs(t0, t1) * 1e3);
    auto next = std::make_shared<const gpar::Graph>(std::move(patch->graph));
    {
      Tracer::Scope span(tracer, "graph.DeltaAffectedRegion");
      auto region = gpar::DeltaAffectedRegion(*cur, *next, patch->applied,
                                              patch->applied_deletes, radius);
      affected.push_back(static_cast<double>(region.size()) /
                         static_cast<double>(next->num_nodes()));
    }
    int64_t t2 = Tracer::NowNs();
    gpar::Status s;
    {
      Tracer::Scope span(tracer, "serve.DeltaJournal::Append");
      s = (*journal)->Append(d);
    }
    append_ms.push_back(Secs(t2, Tracer::NowNs()) * 1e3);
    if (!s.ok()) {
      report.Check(false, "journal append: " + s.ToString());
      return;
    }
    cur = std::move(next);
  }
  report.Metric("graph.patch_ms", Median(patch_ms), "ms");
  report.Metric("graph.affected_frac", Median(affected), "ratio");
  report.Metric("serve.journal_append_ms", Median(append_ms), "ms");
}

}  // namespace perfbench
