// perfbench: the repository benchmark's two processes.
//
//   perfbench gen --workload W --seed N --out DIR
//       writes workload W's inputs for seed N into DIR
//   perfbench run --dir DIR --instance I --seconds S --trace 0|1
//           --out RESULT.json
//       loads only the files of DIR's instance I, runs it for S seconds,
//       checks the answers and writes RESULT.json (with --trace 1 also the
//       instance's spans.tsv)
//
// run.py builds this binary, drives both steps, runs every instance in a
// process of its own and merges their results.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Params;
using perfbench::Report;
using perfbench::RunConfig;
using perfbench::Tracer;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --out DIR\n"
               "       perfbench run --dir DIR --instance I --seconds S "
               "--trace 0|1 --out RESULT.json\n");
  return 2;
}

int Gen(std::map<std::string, std::string>& args) {
  if (!args.count("workload") || !args.count("seed") || !args.count("out")) {
    return Usage();
  }
  gpar::Status s = perfbench::GenerateInputs(
      args["workload"], std::strtoull(args["seed"].c_str(), nullptr, 10),
      args["out"]);
  if (!s.ok()) {
    std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int Run(std::map<std::string, std::string>& args) {
  if (!args.count("dir") || !args.count("instance") || !args.count("seconds") ||
      !args.count("out")) {
    return Usage();
  }
  RunConfig cfg;
  cfg.dir = perfbench::InstanceDir(
      args["dir"],
      static_cast<uint32_t>(std::strtoul(args["instance"].c_str(), nullptr, 10)));
  cfg.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  if (!(cfg.seconds > 0)) return Usage();
  auto top = Params::Read(args["dir"] + "/params.txt");
  auto params = top.ok() ? Params::Read(cfg.dir + "/params.txt") : top;
  if (!params.ok()) {
    std::fprintf(stderr, "run: %s\n", params.status().ToString().c_str());
    return 1;
  }
  const std::string workload = top->Str("workload");
  Tracer tracer(args["trace"] == "1");
  Report report;
  int rc = 0;
  if (workload == "mine") {
    rc = perfbench::RunMine(cfg, *params, tracer, report);
  } else if (workload == "serve") {
    rc = perfbench::RunServe(cfg, *params, tracer, report);
  } else if (workload == "churn") {
    rc = perfbench::RunChurn(cfg, *params, tracer, report);
  } else {
    std::fprintf(stderr, "run: unknown workload %s\n", workload.c_str());
    return 2;
  }
  if (tracer.enabled()) {
    for (const auto& [layer, secs] : tracer.SelfSecondsByLayer()) {
      report.Metric(layer + ".self_s", secs, "s");
    }
    report.Metric("trace.spans", static_cast<double>(tracer.Collect().size()),
                  "count");
    gpar::Status s = tracer.WriteTsv(cfg.dir + "/spans.tsv");
    if (!s.ok()) std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
  }
  gpar::Status s = report.WriteJson(args["out"]);
  if (!s.ok()) {
    std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
    return 1;
  }
  return rc != 0 ? rc : (report.correct() ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return Gen(args);
  if (cmd == "run") return Run(args);
  return Usage();
}
