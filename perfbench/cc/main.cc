// homets_perfbench: the benchmark's measuring program. perfbench/run.py
// builds it, has it generate a workload's inputs in one process and measure
// them in another (so peak RSS belongs to the workload alone):
//
//   homets_perfbench generate --workload W --seed N --dir D [--tiny]
//   homets_perfbench run --workload W --seed N --dir D --seconds S
//                        --trace 0|1 [--tiny] [--expect DIGEST]
//                        [--perturb-reference]
//
// `run` prints a details line (seed, input sizes, nproc, threads, units,
// error_rate, output digest) and then the result line
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int Usage() {
  std::cerr << "usage: homets_perfbench generate|run --workload W --seed N "
               "--dir D [--seconds S --trace 0|1] [--tiny] [--expect DIGEST] "
               "[--perturb-reference]\n";
  return 2;
}

std::string UnitsJson(bool per_layer) {
  std::string out = "{";
  for (const auto& [name, unit] :
       per_layer ? PerLayerCatalog() : EndToEndCatalog()) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + JsonString(unit);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") return Usage();
    const std::string key(arg.substr(2));
    const bool boolean = key == "tiny" || key == "perturb-reference";
    if (!boolean && i + 1 >= argc) return Usage();
    flags.emplace(key, boolean ? "1" : argv[++i]);
  }
  RunOptions opt;
  opt.workload = flags["workload"];
  opt.dir = flags["dir"];
  if (!KnownWorkload(opt.workload) || opt.dir.empty() || !flags.count("seed")) {
    return Usage();
  }
  opt.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  opt.tiny = flags.count("tiny") > 0;
  if (mode == "generate") {
    return GenerateInputs(opt.workload, opt.seed, opt.tiny, opt.dir);
  }
  if (mode != "run") return Usage();
  opt.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  opt.trace = flags["trace"] == "1";
  opt.expect = flags["expect"];
  opt.perturb_reference = flags.count("perturb-reference") > 0;
  const int nproc = Nproc();
  opt.threads = std::min(4, nproc);

  RunResult result;
  if (opt.workload == "fleet_analyze") result = RunFleetAnalyze(opt);
  if (opt.workload == "stream_motifs") result = RunStreamMotifs(opt);
  if (opt.workload == "csv_convert") result = RunCsvConvert(opt);
  if (result.attempted == 0) {
    std::cerr << "perfbench: " << opt.workload << " attempted nothing: "
              << result.mismatch << "\n";
    return 1;
  }
  // An output mismatch fails every operation of the run.
  if (!result.correct) result.failed = result.attempted;
  if (opt.trace) result.metrics.ZeroUnset();
  const double error_rate = static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted);

  std::string details = "{\"benchmark\": \"homets\", \"workload\": " +
                        JsonString(opt.workload) +
                        ", \"seed\": " + std::to_string(opt.seed) +
                        ", \"trace\": " + (opt.trace ? "1" : "0") +
                        ", \"tiny\": " + (opt.tiny ? "true" : "false") +
                        ", \"nproc\": " + std::to_string(nproc) +
                        ", \"threads\": " + std::to_string(opt.threads) +
                        ", \"seconds\": " + JsonNumber(opt.seconds) +
                        ", \"peak_rss_mb\": " + JsonNumber(PeakRssMb()) +
                        ", \"error_rate\": " + JsonNumber(error_rate) +
                        ", \"output_digest\": " + JsonString(result.output_digest) +
                        ", \"reference\": " +
                        JsonString(opt.expect.empty() ? "first operation"
                                                      : opt.expect) +
                        ", \"mismatch\": " + JsonString(result.mismatch) +
                        ", \"inputs\": {";
  bool first = true;
  for (const auto& [key, value] : result.details) {
    details += (first ? "" : ", ") + JsonString(key) + ": " + JsonNumber(value);
    first = false;
  }
  details += "}, \"units\": " + UnitsJson(opt.trace) + "}";
  std::cout << details << "\n";

  if (!opt.trace) result.metrics.Set("peak_rss_mb", PeakRssMb());
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << result.metrics.Json() << "}" << std::endl;
  return 0;
}
