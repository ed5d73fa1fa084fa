// Shared declarations of the repository benchmark (see ../README.md).
//
// `perfbench gen` turns (workload, seed) into input files; `perfbench run`
// loads only those files, runs the workload for a fixed wall-clock window,
// checks the answers off the clock and writes a result JSON that run.py
// turns into the benchmark's one-line report.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "rule/gpar.h"
#include "trace.h"

namespace perfbench {

/// Workload parameters, written by `gen` next to the input files as
/// `params.txt` (one `key value` pair per line) and read back by `run`.
class Params {
 public:
  static gpar::Result<Params> Read(const std::string& path);
  gpar::Status Write(const std::string& path) const;

  void Set(const std::string& key, const std::string& value) {
    kv_[key] = value;
  }
  void Set(const std::string& key, double value);

  /// Typed getters; a missing or malformed key is a fatal input error.
  std::string Str(const std::string& key) const;
  uint64_t U64(const std::string& key) const;
  double F64(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// What one `run` produced: correctness verdict, operation counts and named
/// metrics with units.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  /// Counts `n` attempted operations, `failed` of which failed or were
  /// refused.
  void Count(uint64_t n, uint64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }
  void Note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }
  bool correct() const { return errors_.empty(); }
  gpar::Status WriteJson(const std::string& path) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct RunConfig {
  std::string dir;      ///< the instance's input directory `gen` wrote
  double seconds = 10;  ///< measurement window
};

// ---- Input files ----

/// One scheduled point request: its due offset from the start of the
/// open-loop phase and the centers it asks about.
struct Request {
  uint64_t due_us = 0;
  std::vector<gpar::NodeId> centers;
};

/// Writes the workload's inputs for `seed` into `dir`: a top-level
/// params.txt naming the workload and the instance count, and one
/// subdirectory per instance (`InstanceDir`) with that instance's files.
gpar::Status GenerateInputs(const std::string& workload, uint64_t seed,
                            const std::string& dir);
std::string InstanceDir(const std::string& dir, uint32_t i);

gpar::Result<std::vector<Request>> ReadRequests(const std::string& path,
                                                gpar::NodeId num_nodes);
gpar::Result<std::vector<gpar::GraphDelta>> ReadDeltas(const std::string& path);

/// The predicate named by the `x_label`/`edge_label`/`y_label` params.
gpar::Result<gpar::Predicate> PredicateFromParams(const Params& p,
                                                  const gpar::Graph& g);

// ---- Workloads ----

int RunMine(const RunConfig& cfg, const Params& p, Tracer& tracer,
            Report& report);
int RunServe(const RunConfig& cfg, const Params& p, Tracer& tracer,
             Report& report);
int RunChurn(const RunConfig& cfg, const Params& p, Tracer& tracer,
             Report& report);

// ---- Statistics ----

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty `v`.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
/// Smallest element of `v`; 0 for an empty `v`.
inline double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}
/// Peak resident set of this process so far, in MiB.
double PeakRssMb();
/// Seconds between two steady-clock nanosecond stamps.
inline double Secs(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
