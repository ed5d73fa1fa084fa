// In-memory span recorder for the benchmark's traced mode.
//
// Spans wrap the benchmark's own calls into a layer's public function; the
// span name is "<layer>.<function>" with the layer taken from src/ (graph,
// pattern, match, mine, parallel, identify, rule, serve, maintain), or
// "client" for the benchmark's request envelopes. Each thread appends to
// its own buffer; nothing is written until `WriteTsv` at the end of a run.
// A disabled tracer records nothing and costs one branch per scope.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< static string: "<layer>.<function>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< shared by every span of one request; 0 = none
  uint32_t thread = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Steady-clock nanoseconds.
  static int64_t NowNs();

  /// Records one span for its lifetime. Spans opened while it is live on
  /// the same thread become its children and inherit its request id.
  class Scope {
   public:
    /// `request` 0 inherits the enclosing span's request id. `start_ns`
    /// backdates the span (an open-loop request starts at its due time).
    Scope(Tracer& tracer, const char* name, uint64_t request = 0,
          int64_t start_ns = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    Span span_;
    uint64_t saved_parent_ = 0;
    uint64_t saved_request_ = 0;
  };

  /// All spans recorded so far, merged across threads.
  std::vector<Span> Collect() const;

  /// Self time per layer in seconds: each span's duration minus the time
  /// covered by its children, summed by the name's layer prefix.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes one span per line: name, start_us, end_us, id, parent,
  /// request, thread (tab-separated, times relative to the first span).
  gpar::Status WriteTsv(const std::string& path) const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
