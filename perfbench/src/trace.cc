#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

/// Per-thread tracing state. One tracer is live per process; `owner`
/// re-binds the buffer if a thread ever records for a different one.
struct ThreadState {
  const Tracer* owner = nullptr;
  void* buffer = nullptr;
  uint64_t parent = 0;
  uint64_t request = 0;
};
thread_local ThreadState tls;

std::string LayerOf(const char* name) {
  std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (tls.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<uint32_t>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(1024);
    tls = {this, buffers_.back().get(), 0, 0};
  }
  return static_cast<Buffer*>(tls.buffer);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t request,
                     int64_t start_ns) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  tracer.ThreadBuffer();  // binds tls to this tracer
  span_.name = name;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = tls.parent;
  span_.request = request != 0 ? request : tls.request;
  saved_parent_ = tls.parent;
  saved_request_ = tls.request;
  tls.parent = span_.id;
  tls.request = span_.request;
  span_.start_ns = start_ns >= 0 ? start_ns : NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  Buffer* buf = tracer_->ThreadBuffer();
  span_.thread = buf->thread;
  buf->spans.push_back(span_);
  tls.parent = saved_parent_;
  tls.request = saved_request_;
}

// Called once the recording threads have finished (buffers are appended
// without a lock by their own threads).
std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<Span> spans = Collect();
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    int64_t self = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    out[LayerOf(s.name)] += static_cast<double>(std::max<int64_t>(self, 0)) * 1e-9;
  }
  return out;
}

gpar::Status Tracer::WriteTsv(const std::string& path) const {
  std::vector<Span> spans = Collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return gpar::Status::IoError("cannot write " + path);
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "name\tstart_us\tend_us\tid\tparent\trequest\tthread\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%.3f\t%.3f\t%llu\t%llu\t%llu\t%u\n", s.name,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - t0) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread);
  }
  if (std::fclose(f) != 0) return gpar::Status::IoError("cannot write " + path);
  return gpar::Status::OK();
}

}  // namespace perfbench
