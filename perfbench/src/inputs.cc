// Input generation (`perfbench gen`), the input-file readers, and the small
// shared helpers (params, report, statistics).
//
// Every size below is part of the benchmark's definition: BENCHMARK.json
// and ../README.md state them, and a change that claims a gain must not
// edit them.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "bench.h"
#include "graph/generator.h"
#include "graph/graph_snapshot.h"
#include "graph/stats.h"
#include "mine/dmine.h"
#include "pattern/pattern_generator.h"
#include "rule/rule_snapshot.h"

namespace perfbench {

using gpar::Graph;
using gpar::GraphDelta;
using gpar::LabelId;
using gpar::NodeId;
using gpar::Predicate;
using gpar::Result;
using gpar::Status;

namespace {

// ---- Workload sizes ----

// Every workload runs several independent instances (input sets drawn from
// sub-seeds of --seed), one after another, each for an equal share of the
// window; the reported numbers average over them (mine: take their median),
// so that one seed's graph and rule set do not decide a run. serve's cost
// follows the generated rules. mine needs the most: an identification's
// cost follows the mined Σ, whose rules cost either ~5 ms or 30-95 ms each
// at scale 2, so one instance's identification took 15-260 ms by seed.
uint32_t InstancesOf(const std::string& workload) {
  return workload == "mine" ? 12 : workload == "serve" ? 5 : 3;
}

// mine: Pokec-like graphs mined for like_music by a 4-worker DMine. Scale 1
// keeps one DMine near 1 s, so that twelve instances, each run twice, fit
// in a run.
constexpr uint32_t kMineScale = 1;
constexpr uint32_t kMineWorkers = 4;
constexpr uint32_t kMineK = 10;
constexpr uint32_t kMineD = 2;
constexpr uint32_t kMineSigma = 4;
constexpr uint32_t kMineMaxEdges = 3;
// One identification is a single short BSP round; with 4 workers its wall
// time followed the slowest of 4 shared cores and moved by 30% when the
// host was busy. One worker keeps it compute-bound.
constexpr uint32_t kMineIdentifyWorkers = 1;

// serve: a GPlus-like graph, ~12 generated majored_in rules, a 2-shard
// router with one matcher thread per shard and two client threads. A
// request asks for 32 centers so that matching, not the thread hand-offs
// of the router, dominates its cost: with 8 centers the hand-offs' wake-up
// latency made capacity move by 25% between runs on a shared machine.
constexpr uint32_t kServeScale = 4;
constexpr uint32_t kServeRules = 12;
constexpr uint32_t kServeShards = 2;
constexpr uint32_t kServeShardWorkers = 1;
constexpr uint32_t kServeClients = 2;
constexpr uint32_t kServeCacheMemberships = 8000;  // per shard
constexpr uint32_t kServeRate = 500;                // open-loop req/s
constexpr uint32_t kServeRequests = 100000;
constexpr uint32_t kServeCenters = 32;  // per request

// churn: a Pokec-like graph served by one maintained, journaled RuleServer
// with one writer and one reader thread beside two server workers.
constexpr uint32_t kChurnScale = 1;
constexpr uint32_t kChurnWorkers = 2;
constexpr uint32_t kChurnCacheMemberships = 20000;
constexpr uint32_t kChurnK = 6;
constexpr uint32_t kChurnD = 2;
constexpr uint32_t kChurnSigma = 5;
constexpr uint32_t kChurnMaxEdges = 2;
constexpr uint32_t kChurnBatches = 400;
constexpr uint32_t kChurnTailBatches = 4;  // journaled after the checkpoint
constexpr uint32_t kChurnInserts = 6;
constexpr uint32_t kChurnDeletes = 6;
constexpr uint32_t kChurnRequests = 100000;
constexpr uint32_t kChurnCenters = 8;  // per request
constexpr uint32_t kNearCenters = 16;

/// splitmix64: a portable generator, so one seed gives the same inputs on
/// every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return Rng(seed * 0x100000001b3ULL + salt).Next();
}

/// Zipf(1) over `n` ranks: rank r (0-based) is drawn with probability
/// proportional to 1 / (r + 1).
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) cdf_[r] = (sum += 1.0 / (r + 1));
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The most frequent (x label, edge, y label) triple with edge `edge_name`.
Result<Predicate> PickPredicate(const Graph& g, const std::string& edge_name) {
  LabelId edge = g.labels().Lookup(edge_name);
  for (const gpar::EdgePatternStat& s : gpar::FrequentEdgePatterns(g)) {
    if (s.edge_label == edge) return Predicate{s.src_label, s.edge_label, s.dst_label};
  }
  return Status::NotFound("no edge pattern with label " + edge_name);
}

void SetGraphParams(const Graph& g, const Predicate& q, Params* p) {
  p->Set("nodes", g.num_nodes());
  p->Set("edges", static_cast<double>(g.num_edges()));
  p->Set("x_label", g.labels().Name(q.x_label));
  p->Set("edge_label", g.labels().Name(q.edge_label));
  p->Set("y_label", g.labels().Name(q.y_label));
}

Status WriteRequests(const std::vector<Request>& reqs, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  auto put = [&os](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) os.put(static_cast<char>(v >> (8 * i)));
  };
  os.write("PBRQ", 4);
  put(reqs.size(), 4);
  for (const Request& r : reqs) {
    put(r.due_us, 8);
    put(r.centers.size(), 4);
    for (NodeId c : r.centers) put(c, 4);
  }
  os.close();
  if (!os) return Status::IoError("cannot write " + path);
  return Status::OK();
}

/// Zipf(1)-popular point requests of `centers` centers each over a
/// shuffled candidate order, due at a fixed `rate` (0: no schedule).
std::vector<Request> ZipfRequests(std::span<const NodeId> candidates,
                                  size_t count, uint32_t centers, double rate,
                                  Rng& rng) {
  std::vector<NodeId> order(candidates.begin(), candidates.end());
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  Zipf zipf(order.size());
  std::vector<Request> reqs(count);
  for (size_t i = 0; i < count; ++i) {
    reqs[i].due_us = rate > 0 ? static_cast<uint64_t>(i * 1e6 / rate) : 0;
    for (uint32_t c = 0; c < centers; ++c) {
      reqs[i].centers.push_back(order[zipf.Draw(rng)]);
    }
  }
  return reqs;
}

std::string Join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

Status GenMine(uint64_t seed, const std::string& dir, Params* p) {
  Graph g = gpar::MakePokecLike(kMineScale, Mix(seed, 1));
  GPAR_ASSIGN_OR_RETURN(Predicate q, PickPredicate(g, "like_music"));
  GPAR_RETURN_NOT_OK(
      gpar::WriteGraphSnapshotFile(g, Join(dir, "graph.snap")));
  p->Set("graph", "pokec");
  p->Set("scale", kMineScale);
  SetGraphParams(g, q, p);
  p->Set("workers", kMineWorkers);
  p->Set("k", kMineK);
  p->Set("d", kMineD);
  p->Set("sigma", kMineSigma);
  p->Set("max_pattern_edges", kMineMaxEdges);
  p->Set("identify_workers", kMineIdentifyWorkers);
  p->Set("eta", 1.0);
  return Status::OK();
}

Status GenServe(uint64_t seed, const std::string& dir, Params* p) {
  Graph g = gpar::MakeGPlusLike(kServeScale, Mix(seed, 2));
  GPAR_ASSIGN_OR_RETURN(Predicate q, PickPredicate(g, "majored_in"));
  // Radius-1 rules: with radius 2, which rules a seed drew moved latency by
  // up to 2x.
  gpar::GparGenOptions gopt;
  gopt.num_nodes = 4;
  gopt.num_edges = 4;
  gopt.max_radius = 1;
  gopt.seed = Mix(seed, 3);
  std::vector<gpar::RuleRecord> records;
  for (gpar::Gpar& r : gpar::GenerateGparWorkload(g, q, kServeRules, gopt)) {
    records.push_back({std::move(r), 0, 0.0});
  }
  if (records.size() < 2) {
    return Status::Internal("pattern generator produced too few rules");
  }
  GPAR_RETURN_NOT_OK(
      gpar::WriteGraphSnapshotFile(g, Join(dir, "graph.snap")));
  GPAR_RETURN_NOT_OK(gpar::WriteRuleSetSnapshotFile(records, g.labels(),
                                                      Join(dir, "rules.snap")));
  Rng rng(Mix(seed, 5));
  GPAR_RETURN_NOT_OK(WriteRequests(
      ZipfRequests(g.nodes_with_label(q.x_label), kServeRequests,
                   kServeCenters, kServeRate, rng),
      Join(dir, "requests.bin")));
  p->Set("graph", "gplus");
  p->Set("scale", kServeScale);
  SetGraphParams(g, q, p);
  p->Set("rules", static_cast<double>(records.size()));
  p->Set("shards", kServeShards);
  p->Set("shard_workers", kServeShardWorkers);
  p->Set("clients", kServeClients);
  p->Set("cache_capacity", kServeCacheMemberships);
  p->Set("rate", kServeRate);
  p->Set("centers_per_request", kServeCenters);
  return Status::OK();
}

/// Insert+delete batches that are valid in sequence from `g`: deletes name
/// edges present at that point of the stream, and inserts draw their
/// (src label, edge, dst label) triple from the graph's own edge-pattern
/// mix. Also returns, per batch, candidate centers within one hop of the
/// batch's endpoints (the reader's "near the last write" requests).
void MakeDeltaStream(const Graph& g, LabelId x_label, Rng& rng,
                     std::vector<GraphDelta>* batches,
                     std::vector<Request>* near) {
  struct Key {
    NodeId s;
    LabelId l;
    NodeId d;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return (static_cast<size_t>(k.s) * 0x9e3779b97f4a7c15ULL) ^
             (static_cast<size_t>(k.l) << 40) ^ k.d;
    }
  };
  std::vector<Key> live;
  std::unordered_set<Key, KeyHash> present;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const gpar::AdjEntry& e : g.out_edges(v)) {
      live.push_back({v, e.label, e.other});
      present.insert(live.back());
    }
  }
  std::vector<gpar::EdgePatternStat> mix = gpar::FrequentEdgePatterns(g);
  std::vector<double> cdf;
  double total = 0;
  for (const auto& s : mix) cdf.push_back(total += static_cast<double>(s.count));

  for (uint32_t b = 0; b < kChurnBatches; ++b) {
    GraphDelta delta;
    delta.sequence = b + 1;
    for (uint32_t i = 0; i < kChurnDeletes && !live.empty(); ++i) {
      size_t at = rng.Below(live.size());
      Key k = live[at];
      live[at] = live.back();
      live.pop_back();
      present.erase(k);
      delta.deletes.push_back({k.s, k.l, k.d});
    }
    for (uint32_t i = 0; i < kChurnInserts;) {
      double u = rng.Unit() * total;
      const auto& s = mix[std::min<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
          mix.size() - 1)];
      auto srcs = g.nodes_with_label(s.src_label);
      auto dsts = g.nodes_with_label(s.dst_label);
      Key k{srcs[rng.Below(srcs.size())], s.edge_label,
            dsts[rng.Below(dsts.size())]};
      if (k.s == k.d || present.count(k) > 0) continue;
      live.push_back(k);
      present.insert(k);
      delta.inserts.push_back({k.s, k.l, k.d});
      ++i;
    }
    Request n;
    auto add_near = [&](NodeId v) {
      if (n.centers.size() < kNearCenters && g.node_label(v) == x_label &&
          std::find(n.centers.begin(), n.centers.end(), v) == n.centers.end()) {
        n.centers.push_back(v);
      }
    };
    auto touch = [&](NodeId v) {
      add_near(v);
      for (const auto& e : g.out_edges(v)) add_near(e.other);
      for (const auto& e : g.in_edges(v)) add_near(e.other);
    };
    for (const auto& e : delta.inserts) touch(e.src), touch(e.dst);
    for (const auto& e : delta.deletes) touch(e.src), touch(e.dst);
    near->push_back(std::move(n));
    batches->push_back(std::move(delta));
  }
}

Status GenChurn(uint64_t seed, const std::string& dir, Params* p) {
  auto g = std::make_shared<const Graph>(
      gpar::MakePokecLike(kChurnScale, Mix(seed, 6)));
  GPAR_ASSIGN_OR_RETURN(Predicate q, PickPredicate(*g, "like_music"));
  gpar::DmineOptions mo;
  mo.num_workers = kChurnWorkers;
  mo.k = kChurnK;
  mo.d = kChurnD;
  mo.sigma = kChurnSigma;
  mo.max_pattern_edges = kChurnMaxEdges;
  GPAR_ASSIGN_OR_RETURN(gpar::DmineResult mined, gpar::Dmine(*g, q, mo));
  std::vector<gpar::RuleRecord> records;
  for (const auto& r : mined.topk) records.push_back({r->rule, r->supp, r->conf});
  if (records.empty()) return Status::Internal("churn: DMine found no rules");

  Rng rng(Mix(seed, 7));
  std::vector<GraphDelta> batches;
  std::vector<Request> near;
  MakeDeltaStream(*g, q.x_label, rng, &batches, &near);
  std::string frames;
  for (const GraphDelta& d : batches) frames += d.Serialize();
  {
    std::ofstream os(Join(dir, "deltas.bin"), std::ios::binary);
    os.write(frames.data(), static_cast<std::streamsize>(frames.size()));
    if (!os) return Status::IoError("cannot write deltas.bin");
  }
  GPAR_RETURN_NOT_OK(
      gpar::WriteGraphSnapshotFile(*g, Join(dir, "graph.snap")));
  GPAR_RETURN_NOT_OK(gpar::WriteRuleSetSnapshotFile(
      records, g->labels(), Join(dir, "rules.snap")));
  GPAR_RETURN_NOT_OK(WriteRequests(near, Join(dir, "near.bin")));
  GPAR_RETURN_NOT_OK(WriteRequests(
      ZipfRequests(g->nodes_with_label(q.x_label), kChurnRequests,
                   kChurnCenters, 0, rng),
      Join(dir, "requests.bin")));
  p->Set("graph", "pokec");
  p->Set("scale", kChurnScale);
  SetGraphParams(*g, q, p);
  p->Set("workers", kChurnWorkers);
  p->Set("cache_capacity", kChurnCacheMemberships);
  p->Set("k", kChurnK);
  p->Set("d", kChurnD);
  p->Set("sigma", kChurnSigma);
  p->Set("max_pattern_edges", kChurnMaxEdges);
  p->Set("batches", kChurnBatches);
  p->Set("tail_batches", kChurnTailBatches);
  p->Set("inserts_per_batch", kChurnInserts);
  p->Set("deletes_per_batch", kChurnDeletes);
  p->Set("journal_fsync", 0);
  return Status::OK();
}

}  // namespace

// ---- Params ----

void Params::Set(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  kv_[key] = os.str();
}

Result<Params> Params::Read(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IoError("cannot read " + path);
  Params p;
  std::string key, value;
  while (is >> key >> value) p.kv_[key] = value;
  return p;
}

Status Params::Write(const std::string& path) const {
  std::ofstream os(path);
  for (const auto& [k, v] : kv_) os << k << ' ' << v << '\n';
  os.close();
  if (!os) return Status::IoError("cannot write " + path);
  return Status::OK();
}

std::string Params::Str(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) {
    std::fprintf(stderr, "params: missing key %s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

uint64_t Params::U64(const std::string& key) const {
  std::string s = Str(key);
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    std::fprintf(stderr, "params: %s is not an integer\n", key.c_str());
    std::exit(2);
  }
  return v;
}

double Params::F64(const std::string& key) const {
  std::string s = Str(key);
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "params: %s is not a number\n", key.c_str());
    std::exit(2);
  }
  return v;
}

// ---- Report ----

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    errors_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

namespace {
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}
}  // namespace

Status Report::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, vu] : metrics_) {
    os << sep << JsonString(name) << ": {\"value\": "
       << (std::isfinite(vu.first) ? vu.first : 0.0)
       << ", \"unit\": " << JsonString(vu.second) << "}";
    sep = ", ";
  }
  os << "}, \"notes\": {";
  sep = "";
  for (const auto& [k, v] : notes_) {
    os << sep << JsonString(k) << ": " << JsonString(v);
    sep = ", ";
  }
  os << "}, \"errors\": [";
  sep = "";
  for (const auto& e : errors_) {
    os << sep << JsonString(e);
    sep = ", ";
  }
  os << "]}\n";
  os.close();
  if (!os) return Status::IoError("cannot write " + path);
  return Status::OK();
}

// ---- Statistics ----

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Inputs ----

Status GenerateInputs(const std::string& workload, uint64_t seed,
                      const std::string& dir) {
  Params top;
  top.Set("workload", workload);
  top.Set("seed", static_cast<double>(seed));
  const uint32_t instances = InstancesOf(workload);
  top.Set("instances", instances);
  for (uint32_t i = 0; i < instances; ++i) {
    const std::string sub = InstanceDir(dir, i);
    std::error_code ec;
    std::filesystem::create_directories(sub, ec);
    if (ec) return Status::IoError("cannot create " + sub);
    const uint64_t inst_seed = Mix(seed, 1000 + i);
    Params p;
    p.Set("workload", workload);
    p.Set("seed", static_cast<double>(inst_seed));
    Status s;
    if (workload == "mine") {
      s = GenMine(inst_seed, sub, &p);
    } else if (workload == "serve") {
      s = GenServe(inst_seed, sub, &p);
    } else if (workload == "churn") {
      s = GenChurn(inst_seed, sub, &p);
    } else {
      return Status::InvalidArgument("unknown workload " + workload);
    }
    GPAR_RETURN_NOT_OK(s);
    GPAR_RETURN_NOT_OK(p.Write(Join(sub, "params.txt")));
  }
  return top.Write(Join(dir, "params.txt"));
}

std::string InstanceDir(const std::string& dir, uint32_t i) {
  return dir + "/" + std::to_string(i);
}

Result<std::vector<Request>> ReadRequests(const std::string& path,
                                          NodeId num_nodes) {
  std::ifstream is(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  size_t pos = 0;
  auto get = [&](int bytes, uint64_t* v) {
    if (data.size() - pos < static_cast<size_t>(bytes)) return false;
    *v = 0;
    for (int i = 0; i < bytes; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos++]))
            << (8 * i);
    }
    return true;
  };
  auto bad = [&path] { return Status::Corruption("bad request file " + path); };
  if (data.size() < 4 || data.compare(0, 4, "PBRQ") != 0) return bad();
  pos = 4;
  uint64_t count = 0;
  if (!get(4, &count)) return bad();
  std::vector<Request> reqs;
  for (uint64_t i = 0; i < count; ++i) {
    Request r;
    uint64_t n = 0, c = 0;
    if (!get(8, &r.due_us) || !get(4, &n) || n > (data.size() - pos) / 4) {
      return bad();
    }
    for (uint64_t j = 0; j < n; ++j) {
      get(4, &c);
      if (c >= num_nodes) return bad();
      r.centers.push_back(static_cast<NodeId>(c));
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

Result<std::vector<GraphDelta>> ReadDeltas(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot read " + path);
  std::string data((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  std::vector<GraphDelta> out;
  std::string_view rest(data);
  while (!rest.empty()) {
    GPAR_ASSIGN_OR_RETURN(size_t size, GraphDelta::FrameSize(rest));
    if (size > rest.size()) return Status::Corruption("truncated delta stream");
    GPAR_ASSIGN_OR_RETURN(GraphDelta d,
                          GraphDelta::Deserialize(rest.substr(0, size)));
    out.push_back(std::move(d));
    rest.remove_prefix(size);
  }
  return out;
}

Result<Predicate> PredicateFromParams(const Params& p, const Graph& g) {
  Predicate q{g.labels().Lookup(p.Str("x_label")),
              g.labels().Lookup(p.Str("edge_label")),
              g.labels().Lookup(p.Str("y_label"))};
  if (q.x_label == gpar::kNoLabel || q.edge_label == gpar::kNoLabel ||
      q.y_label == gpar::kNoLabel) {
    return Status::InvalidArgument("predicate labels missing from the graph");
  }
  return q;
}

}  // namespace perfbench
