// homets command-line tool: generate synthetic fleets, profile gateway
// traces, and mine motifs — the framework's operations without writing C++.
//
//   homets_cli generate --out DIR [--gateways N] [--weeks W] [--seed S]
//                       [--format csv|homets]
//   homets_cli convert --to homets|csv [--out DIR] TRACE [TRACE ...]
//   homets_cli profile TRACE
//   homets_cli motifs [--period daily|weekly] TRACE [TRACE ...]
//   homets_cli stream [--period daily|weekly] [--horizon N] TRACE [...]
//   homets_cli analyze [--shards N] [--threads N] [--checkpoint-dir DIR]
//                      [--resume] [--shard-attempts N]
//                      [--shard-backoff-ms MS] [--shard-deadline-ms MS]
//                      [--fail-fast] TRACE [TRACE ...]
//
// TRACE arguments are read through DatasetReader: `.homets` files decode as
// the binary columnar format (DESIGN.md §11), anything else as the
// WriteGatewayCsv long format; --input-format=csv|homets overrides the
// extension. A .homets file may hold a whole fleet — each gateway inside is
// analyzed as if it had been passed as its own CSV, so analytical stdout is
// byte-identical across formats.
//
// Every subcommand also takes the observability flags
//   --metrics-out FILE   write the end-of-run metrics registry as JSON
//   --trace-out FILE     record spans and write Chrome trace_event JSON
//                        (open in about:tracing or https://ui.perfetto.dev)
// the resilience flags
//   --input-format auto|csv|homets     how to decode TRACE args (default
//                                      auto: by extension)
//   --read-policy strict|skip          bad-row handling for trace ingestion
//   --read-retries N                   retry transient IO failures N times
//   --failpoints SPEC                  arm fault injection (DESIGN.md §8)
//   --failpoints-seed N                seed for probabilistic failpoints
// and the run-telemetry flags (DESIGN.md §12)
//   --log-out FILE       write structured JSON-lines logs to FILE
//   --log-level LEVEL    debug|info|warn|error|off; default warn on stderr,
//                        info when --log-out is given
//   --run-manifest-out FILE            write a schema-versioned
//                                      RUN_MANIFEST.json describing the run
// and prints a metrics summary on stderr when the run succeeds. Telemetry
// is exported once, at exit; the logger writes only to stderr or its own
// file, so analytical stdout is byte-identical with and without telemetry.
//
// The manifest is written on success AND on failure/cancellation (partial
// stages plus the first failing Status), so an orchestrator can audit a
// killed shard from its manifest alone.
//
// Exit codes (documented in tools/README.md): 0 success, 2 usage error,
// 10 + StatusCode for a Status failure (e.g. 17 = IoError), 1 for failures
// with no Status attached. Status failures print the canonical code name on
// stderr so scripts can match either channel.
//
// Flags are strict: unknown --flags and a trailing --flag with no value are
// usage errors, never positionals.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/background.h"
#include "core/motif.h"
#include "core/profiling.h"
#include "core/stationarity.h"
#include "core/streaming.h"
#include "fleet/orchestrator.h"
#include "io/dataset.h"
#include "io/table.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "simgen/fleet.h"
#include "storage/homets_format.h"

namespace {

using namespace homets;  // NOLINT: tool binary

int Usage() {
  std::cerr
      << "usage:\n"
         "  homets_cli generate --out DIR [--gateways N] [--weeks W] "
         "[--seed S] [--format csv|homets]\n"
         "  homets_cli convert --to homets|csv [--out DIR] TRACE [...]\n"
         "  homets_cli profile TRACE\n"
         "  homets_cli motifs [--period daily|weekly] TRACE [...]\n"
         "  homets_cli stream [--period daily|weekly] [--horizon N] "
         "TRACE [...]\n"
         "  homets_cli analyze [--shards N] [--threads N] "
         "[--checkpoint-dir DIR]\n"
         "                     [--resume] [--shard-attempts N] "
         "[--shard-backoff-ms MS]\n"
         "                     [--shard-deadline-ms MS] [--fail-fast] "
         "TRACE [...]\n"
         "common flags (all subcommands):\n"
         "  --metrics-out FILE   write end-of-run metrics as JSON\n"
         "  --trace-out FILE     write a Chrome/Perfetto trace of the run\n"
         "  --input-format auto|csv|homets    TRACE decoding (default "
         "auto: by extension)\n"
         "  --read-policy strict|skip  bad-row handling (default strict)\n"
         "  --read-retries N     retry transient IO failures N times\n"
         "  --failpoints SPEC    arm fault injection (see tools/README.md)\n"
         "  --failpoints-seed N  seed for probabilistic failpoints\n"
         "  --log-out FILE       write structured JSON-lines logs\n"
         "  --log-level LEVEL    debug|info|warn|error|off (default warn)\n"
         "  --run-manifest-out FILE      write a run manifest JSON\n";
  return 2;
}

// The observability and resilience flags every subcommand accepts.
const std::set<std::string> kObsFlags = {
    "metrics-out",  "trace-out",        "input-format",    "read-policy",
    "read-retries", "failpoints",       "failpoints-seed", "log-out",
    "log-level",    "run-manifest-out"};

// Flags that take no value (bare `--resume`; `--resume=0` still parses).
const std::set<std::string> kBoolFlags = {"resume", "fail-fast"};

std::set<std::string> WithObsFlags(std::set<std::string> flags) {
  flags.insert(kObsFlags.begin(), kObsFlags.end());
  return flags;
}

// The run's manifest, when --run-manifest-out asked for one. File scope so
// FailWith can record the first failing Status from any subcommand depth.
obs::RunManifestBuilder* g_manifest = nullptr;

// Status failures exit as 10 + the numeric StatusCode (IoError = 17,
// InvalidArgument = 11, ...) so scripts can tell a transient IO problem from
// corrupt input without parsing stderr. `context` names the failing step.
int FailWith(const std::string& context, const Status& status) {
  if (g_manifest != nullptr) g_manifest->MarkFailed(context, status);
  std::cerr << context << ": [" << StatusCodeToString(status.code()) << "] "
            << status.message() << "\n";
  return 10 + static_cast<int>(status.code());
}

// Dataset options (format + resilient ingestion) from the common flags;
// exits via usage error on a bad policy or format name.
Result<io::DatasetOptions> DatasetOptionsFromFlags(const ParsedArgs& args) {
  io::DatasetOptions options;
  HOMETS_ASSIGN_OR_RETURN(
      options.format,
      io::ParseInputFormat(args.GetString("input-format", "auto")));
  const std::string policy = args.GetString("read-policy", "strict");
  if (policy == "skip") {
    options.read.policy = io::ErrorPolicy::kSkipAndReport;
  } else if (policy != "strict") {
    return Status::InvalidArgument("--read-policy must be strict|skip");
  }
  HOMETS_ASSIGN_OR_RETURN(const int64_t retries,
                          args.GetInt("read-retries", 0));
  if (retries < 0) {
    return Status::InvalidArgument("--read-retries must be >= 0");
  }
  options.read.max_retries = static_cast<int>(retries);
  return options;
}

// Narrates quarantine and retry activity of the CSV edge to stderr so lenient
// runs stay auditable (stdout stays byte-identical across formats), and
// accumulates the counters into the run manifest.
void NarrateIngest(const io::IngestReport& report) {
  if (g_manifest != nullptr) {
    obs::ManifestIngestCounters counters;
    counters.rows_parsed = report.rows_parsed;
    counters.rows_malformed = report.rows_malformed;
    counters.rows_duplicate = report.rows_duplicate;
    counters.retries = report.retries;
    counters.files_quarantined = report.truncated ? 1 : 0;
    g_manifest->RecordIngest(counters);
  }
  if (report.SkippedTotal() > 0 || report.retries > 0 || report.truncated) {
    std::cerr << "ingest: " << report.Summary() << "\n";
  }
}

// Manifest label for one TRACE argument under the resolved input format.
std::string InputFormatLabel(const std::string& path,
                             const io::DatasetOptions& options) {
  return std::string(
      io::InputFormatName(io::GuessFormat(path, options.format)));
}

int FlagIntOr(const ParsedArgs& args, const std::string& flag,
              int64_t fallback, int64_t* out) {
  const auto value = args.GetInt(flag, fallback);
  if (!value.ok()) {
    std::cerr << "error: " << value.status().ToString() << "\n";
    return 2;
  }
  *out = *value;
  return 0;
}

int RunGenerate(const ParsedArgs& args) {
  if (!args.Has("out")) {
    std::cerr << "generate: --out DIR is required\n";
    return 2;
  }
  const std::string out_dir = args.GetString("out");
  int64_t gateways = 0, weeks = 0, seed = 0;
  if (FlagIntOr(args, "gateways", 8, &gateways) != 0) return 2;
  if (FlagIntOr(args, "weeks", 4, &weeks) != 0) return 2;
  if (FlagIntOr(args, "seed", 20140317, &seed) != 0) return 2;
  simgen::SimConfig config;
  config.n_gateways = static_cast<int>(gateways);
  config.weeks = static_cast<int>(weeks);
  config.seed = static_cast<uint64_t>(seed);
  config.surveyed_gateways =
      std::min(config.surveyed_gateways, config.n_gateways);
  const Status valid = simgen::ValidateSimConfig(config);
  if (!valid.ok()) {
    std::cerr << "generate: " << valid.ToString() << "\n";
    return 2;
  }
  const std::string format = args.GetString("format", "csv");
  if (format != "csv" && format != "homets") {
    std::cerr << "generate: --format must be csv or homets\n";
    return 2;
  }
  obs::StageTimer stage("generate", g_manifest);
  stage.set_units(static_cast<uint64_t>(config.n_gateways));
  simgen::FleetGenerator generator(config);
  if (format == "homets") {
    // Out-of-core: the whole fleet streams into one columnar file, one
    // gateway in memory at a time.
    const std::string path = out_dir + "/fleet.homets";
    const auto stats = storage::WriteFleetHomets(generator, path);
    if (!stats.ok()) return FailWith("write failed", stats.status());
    std::cout << path << ": " << stats->gateways << " gateways, "
              << stats->devices << " devices, " << stats->chunks
              << " chunks\n";
    return 0;
  }
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto gw = generator.Generate(id);
    const std::string path =
        StrFormat("%s/gateway_%03d.csv", out_dir.c_str(), id);
    const Status status =
        io::WriteGatewayFile(path, gw, io::InputFormat::kCsv);
    if (!status.ok()) return FailWith("write failed", status);
    std::cout << path << ": " << gw.devices.size() << " devices, "
              << gw.AggregateTraffic().CountObserved()
              << " observed minutes\n";
  }
  return 0;
}

// Splits `path` into (directory, stem without the final extension) for
// convert output naming.
void SplitPath(const std::string& path, std::string* dir,
               std::string* stem) {
  const size_t slash = path.find_last_of('/');
  *dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.find_last_of('.');
  *stem = dot == std::string::npos || dot == 0 ? base : base.substr(0, dot);
}

// csv→homets compaction and homets→csv export. Outputs land next to each
// input (or under --out DIR) with the extension swapped; a multi-gateway
// .homets file exports one numbered CSV per gateway.
int RunConvert(const ParsedArgs& args,
               const io::DatasetOptions& dataset_options) {
  if (args.positional.empty()) {
    std::cerr << "convert: at least one TRACE expected\n";
    return 2;
  }
  const std::string to = args.GetString("to");
  if (to != "homets" && to != "csv") {
    std::cerr << "convert: --to homets|csv is required\n";
    return 2;
  }
  obs::StageTimer stage("convert", g_manifest);
  stage.set_units(args.positional.size());
  for (const std::string& path : args.positional) {
    std::string dir, stem;
    SplitPath(path, &dir, &stem);
    const std::string out_dir =
        args.Has("out") ? args.GetString("out") : dir;
    if (to == "homets") {
      const std::string out = out_dir + "/" + stem + ".homets";
      io::IngestReport report;
      const auto stats =
          io::CompactCsvToHomets(path, out, dataset_options.read, &report);
      NarrateIngest(report);
      if (!stats.ok()) return FailWith("convert failed", stats.status());
      std::cout << path << " -> " << out << ": " << stats->rows
                << " rows, " << stats->devices << " devices\n";
      continue;
    }
    const auto reader = storage::HometsReader::Open(path);
    if (!reader.ok()) return FailWith("convert failed", reader.status());
    const size_t gateways = reader->gateway_count();
    for (size_t g = 0; g < gateways; ++g) {
      const auto gw = reader->ReadGateway(g);
      if (!gw.ok()) return FailWith("convert failed", gw.status());
      const std::string out =
          gateways == 1
              ? out_dir + "/" + stem + ".csv"
              : StrFormat("%s/%s_%03zu.csv", out_dir.c_str(), stem.c_str(),
                          g);
      const Status status =
          io::WriteGatewayFile(out, *gw, io::InputFormat::kCsv);
      if (!status.ok()) return FailWith("convert failed", status);
      std::cout << path << " -> " << out << ": " << gw->devices.size()
                << " devices\n";
    }
  }
  return 0;
}

int RunProfile(const ParsedArgs& args,
               const io::DatasetOptions& dataset_options) {
  if (args.positional.size() != 1) {
    std::cerr << "profile: exactly one TRACE expected\n";
    return 2;
  }
  auto reader = io::DatasetReader::Open(args.positional[0], dataset_options);
  if (!reader.ok()) return FailWith("read failed", reader.status());
  if (reader->gateway_count() != 1) {
    std::cerr << "profile: " << args.positional[0] << " holds "
              << reader->gateway_count()
              << " gateways; profile expects exactly one\n";
    return 2;
  }
  const auto gw = reader->ReadGateway(0);
  if (!gw.ok()) return FailWith("read failed", gw.status());
  NarrateIngest(reader->report());
  obs::StageTimer stage("profile", g_manifest);
  stage.set_units(1);
  const auto profile = core::ProfileGateway(*gw);
  if (!profile.ok()) {
    return FailWith("profiling failed", profile.status());
  }
  std::cout << core::FormatProfile(*profile);
  return 0;
}

int RunMotifs(const ParsedArgs& args,
              const io::DatasetOptions& dataset_options) {
  if (args.positional.empty()) {
    std::cerr << "motifs: at least one TRACE expected\n";
    return 2;
  }
  const std::string period = args.GetString("period", "daily");
  const bool weekly = period == "weekly";
  if (!weekly && period != "daily") {
    std::cerr << "motifs: --period must be daily or weekly\n";
    return 2;
  }
  const int64_t granularity = weekly ? 480 : 180;
  const int64_t anchor = weekly ? 120 : 0;
  const int64_t window = weekly ? ts::kMinutesPerWeek : ts::kMinutesPerDay;

  std::vector<ts::TimeSeries> windows;
  std::vector<core::WindowProvenance> provenance;
  int next_id = 0;
  {
    obs::StageTimer stage("read_traces", g_manifest);
    for (const std::string& path : args.positional) {
      auto reader = io::DatasetReader::Open(path, dataset_options);
      if (!reader.ok()) {
        std::cerr << "skipping " << path << ": "
                  << reader.status().ToString() << "\n";
        continue;
      }
      for (size_t g = 0; g < reader->gateway_count(); ++g) {
        const auto gw = reader->ReadGateway(g);
        if (!gw.ok()) {
          std::cerr << "skipping " << path << ": " << gw.status().ToString()
                    << "\n";
          continue;
        }
        NarrateIngest(reader->report());
        const int id = next_id++;
        for (auto& w : ts::AggregateWindows(core::ActiveAggregate(*gw),
                                            granularity, window, anchor)) {
          provenance.push_back({id, w.start_minute()});
          windows.push_back(std::move(w));
        }
      }
    }
    stage.set_units(windows.size());
  }
  if (windows.empty()) {
    std::cerr << "motifs: no usable windows\n";
    return 1;
  }

  // Definition 2 pre-pass per gateway: how repeatable is each home's pattern
  // at the mining granularity? Runs the parallel SimilarityEngine + KS
  // funnel, so the per-stage metrics (pairs computed, KS rejections) account
  // for the whole input even when mining itself converges early.
  {
    obs::StageTimer stage("stationarity", g_manifest);
    stage.set_units(windows.size());
    std::map<int, std::vector<ts::TimeSeries>> by_gateway;
    for (size_t w = 0; w < windows.size(); ++w) {
      by_gateway[provenance[w].gateway_id].push_back(windows[w]);
    }
    size_t stationary = 0, checked = 0;
    for (const auto& [id, gw_windows] : by_gateway) {
      if (gw_windows.size() < 2) continue;
      const auto result = core::CheckStrongStationarity(gw_windows);
      if (!result.ok()) continue;
      ++checked;
      if (result->strongly_stationary) ++stationary;
    }
    std::cout << "stationarity: " << stationary << "/" << checked
              << " gateways strongly stationary over " << period
              << " windows at " << granularity << " min bins\n";
  }

  const auto motifs = [&] {
    obs::StageTimer stage("mine_motifs", g_manifest);
    stage.set_units(windows.size());
    return core::MotifDiscovery().Discover(windows);
  }();
  if (!motifs.ok()) return FailWith("mining failed", motifs.status());
  std::cout << motifs->size() << " " << period << " motifs from "
            << windows.size() << " windows of " << next_id << " gateways\n";
  io::TextTable table({"motif", "support", "gateways", "recurrence_%"});
  for (size_t m = 0; m < motifs->size() && m < 20; ++m) {
    const auto& motif = (*motifs)[m];
    std::map<int, bool> gws;
    for (size_t member : motif.members) {
      gws[provenance[member].gateway_id] = true;
    }
    table.AddRow({StrFormat("%zu", m + 1),
                  StrFormat("%zu", motif.support()),
                  StrFormat("%zu", gws.size()),
                  StrFormat("%.0f", 100.0 * core::WithinGatewayFraction(
                                                motif, provenance))});
  }
  table.Print(std::cout);
  return 0;
}

// Replays traces observation by observation through WindowAssembler →
// StreamingMotifMiner — the paper's "integrate into a streaming analytics
// platform" mode.
int RunStream(const ParsedArgs& args,
              const io::DatasetOptions& dataset_options) {
  if (args.positional.empty()) {
    std::cerr << "stream: at least one TRACE expected\n";
    return 2;
  }
  const std::string period = args.GetString("period", "daily");
  const bool weekly = period == "weekly";
  if (!weekly && period != "daily") {
    std::cerr << "stream: --period must be daily or weekly\n";
    return 2;
  }
  int64_t horizon = 0;
  if (FlagIntOr(args, "horizon", 10000, &horizon) != 0) return 2;
  if (horizon <= 0) {
    std::cerr << "stream: --horizon must be positive\n";
    return 2;
  }
  const int64_t granularity = weekly ? 480 : 180;
  const int64_t anchor = weekly ? 120 : 0;
  const int64_t window = weekly ? ts::kMinutesPerWeek : ts::kMinutesPerDay;

  obs::StageTimer stage("stream", g_manifest);
  auto assembler = core::WindowAssembler::Make(window, granularity, anchor);
  if (!assembler.ok()) return FailWith("stream", assembler.status());
  core::StreamingMotifMiner miner(core::MotifOptions{},
                                  static_cast<size_t>(horizon));
  size_t minutes = 0, windows_streamed = 0;
  int next_id = 0;
  for (const std::string& path : args.positional) {
    auto reader = io::DatasetReader::Open(path, dataset_options);
    if (!reader.ok()) {
      std::cerr << "skipping " << path << ": " << reader.status().ToString()
                << "\n";
      continue;
    }
    for (size_t g = 0; g < reader->gateway_count(); ++g) {
      const auto gw = reader->ReadGateway(g);
      if (!gw.ok()) {
        std::cerr << "skipping " << path << ": " << gw.status().ToString()
                  << "\n";
        continue;
      }
      NarrateIngest(reader->report());
      const int id = next_id++;
      const auto active = core::ActiveAggregate(*gw);
      const auto feed = [&](int64_t minute, double value) {
        const auto completed = assembler->Ingest(id, minute, value);
        if (!completed.ok()) return;
        for (const auto& w : *completed) {
          if (miner.AddWindow(id, w).ok()) ++windows_streamed;
        }
      };
      for (int64_t m = active.start_minute(); m < active.EndMinute(); ++m) {
        feed(m, active[static_cast<size_t>(m - active.start_minute())]);
        ++minutes;
      }
      // Close this gateway's final window before moving to the next trace.
      feed(active.EndMinute(), ts::TimeSeries::Missing());
    }
  }
  for (auto& [id, w] : assembler->Flush()) {
    if (miner.AddWindow(id, w).ok()) ++windows_streamed;
  }
  stage.set_units(windows_streamed);
  if (windows_streamed == 0) {
    std::cerr << "stream: no usable windows\n";
    return 1;
  }

  const auto motifs = miner.CurrentMotifs();
  std::cout << "streamed " << minutes << " minutes of " << next_id
            << " gateways into " << windows_streamed << " " << period
            << " windows (" << miner.windows_retained() << " retained)\n";
  std::cout << motifs.size() << " motifs with support >= 2\n";
  io::TextTable table({"motif", "support", "gateways"});
  const auto& provenance = miner.provenance();
  for (size_t m = 0; m < motifs.size() && m < 20; ++m) {
    std::map<int, bool> gws;
    for (size_t member : motifs[m].members) {
      gws[provenance[member].gateway_id] = true;
    }
    table.AddRow({StrFormat("%zu", m + 1),
                  StrFormat("%zu", motifs[m].support()),
                  StrFormat("%zu", gws.size())});
  }
  table.Print(std::cout);
  return 0;
}

// Nonzero counters plus histogram count/mean — the at-a-glance
// per-stage funnel for the run.
void PrintMetricsSummary(std::ostream& out) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  out << "metrics summary:\n";
  for (const auto& [name, value] : snapshot.counters) {
    if (value != 0) out << "  " << name << " = " << value << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    if (h.count == 0) continue;
    out << "  " << name << " count=" << h.count << " mean="
        << StrFormat("%.1f", h.sum / static_cast<double>(h.count)) << "\n";
  }
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << content;
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

// Sharded fleet analysis (DESIGN.md §15): partitions the gateways of the
// TRACE arguments into --shards contiguous shards, runs each shard's
// per-gateway pipeline on the thread pool under retry/deadline machinery,
// checkpoints completed shards under --checkpoint-dir (resumable with
// --resume after a crash or kill), quarantines poison shards, and merges
// everything into one deterministic fleet report on stdout.
int RunAnalyze(const ParsedArgs& args,
               const io::DatasetOptions& dataset_options) {
  if (args.positional.empty()) {
    std::cerr << "analyze: at least one TRACE expected\n";
    return 2;
  }
  int64_t shards = 0, threads = 0, attempts = 0, backoff_ms = 0,
          deadline_ms = 0;
  if (FlagIntOr(args, "shards", 1, &shards) != 0) return 2;
  if (FlagIntOr(args, "threads", 0, &threads) != 0) return 2;
  if (FlagIntOr(args, "shard-attempts", 3, &attempts) != 0) return 2;
  if (FlagIntOr(args, "shard-backoff-ms", 0, &backoff_ms) != 0) return 2;
  if (FlagIntOr(args, "shard-deadline-ms", 0, &deadline_ms) != 0) return 2;
  if (shards < 1 || attempts < 1 || threads < 0 || backoff_ms < 0 ||
      deadline_ms < 0) {
    std::cerr << "analyze: --shards and --shard-attempts must be >= 1; "
                 "--threads, --shard-backoff-ms and --shard-deadline-ms "
                 "must be >= 0\n";
    return 2;
  }
  fleet::FleetOptions options;
  options.dataset = dataset_options;
  options.n_shards = static_cast<int>(shards);
  options.threads = static_cast<int>(threads);
  options.max_attempts = static_cast<int>(attempts);
  options.retry_backoff_ms = static_cast<double>(backoff_ms);
  options.shard_deadline_ms = static_cast<double>(deadline_ms);
  options.checkpoint_dir = args.GetString("checkpoint-dir");
  options.resume = args.Has("resume") && args.GetString("resume") != "0";
  options.quarantine =
      !(args.Has("fail-fast") && args.GetString("fail-fast") != "0");
  if (options.resume && options.checkpoint_dir.empty()) {
    std::cerr << "analyze: --resume requires --checkpoint-dir\n";
    return 2;
  }
  if (g_manifest != nullptr) {
    // The shard pool runs min(threads, shards) workers; each gateway's
    // engine stays serial (too few weekly window pairs to go parallel).
    g_manifest->SetThreads(
        static_cast<int>(std::thread::hardware_concurrency()),
        std::min(ResolveThreadCount(options.threads), options.n_shards));
  }
  obs::StageTimer stage("analyze", g_manifest);
  stage.set_units(static_cast<uint64_t>(shards));
  fleet::FleetOrchestrator orchestrator(args.positional, options);
  const auto report = orchestrator.Analyze();
  if (!report.ok()) return FailWith("analyze failed", report.status());
  if (g_manifest != nullptr) {
    for (const auto& shard : report->quarantined) {
      g_manifest->AddQuarantinedShard(shard.shard_index, shard.status,
                                      shard.attempts);
    }
  }
  std::cout << fleet::FormatFleetReport(*report);
  // Degraded runs still exit 0 — the report and manifest carry the
  // quarantine record; fail-fast runs never get here on a shard failure.
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::set<std::string> known_flags;
  if (command == "generate") {
    known_flags =
        WithObsFlags({"out", "gateways", "weeks", "seed", "format"});
  } else if (command == "convert") {
    known_flags = WithObsFlags({"to", "out"});
  } else if (command == "profile") {
    known_flags = WithObsFlags({});
  } else if (command == "motifs") {
    known_flags = WithObsFlags({"period"});
  } else if (command == "stream") {
    known_flags = WithObsFlags({"period", "horizon"});
  } else if (command == "analyze") {
    known_flags = WithObsFlags({"shards", "threads", "checkpoint-dir",
                                "resume", "shard-attempts",
                                "shard-backoff-ms", "shard-deadline-ms",
                                "fail-fast"});
  } else {
    return Usage();
  }
  const auto parsed = ParseFlags(
      std::vector<std::string>(argv + 2, argv + argc), known_flags,
      kBoolFlags);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status().ToString() << "\n";
    return Usage();
  }
  const ParsedArgs& args = *parsed;

  // --- run telemetry (DESIGN.md §12): structured logger policy ---
  // Defaults keep the run byte-identical with telemetry off: only warn+
  // reaches stderr, nothing reaches a file. A file sink raises the record
  // level to info; an explicit --log-level wins.
  obs::LogLevel flag_level = obs::LogLevel::kWarn;
  const bool level_given = args.Has("log-level");
  if (level_given &&
      !obs::ParseLogLevel(args.GetString("log-level"), &flag_level)) {
    std::cerr << "error: --log-level must be debug, info, warn, error, or "
                 "off\n";
    return 2;
  }
  const std::string log_path = args.GetString("log-out");
  obs::LoggerOptions log_options;
  log_options.file_path = log_path;
  log_options.min_level =
      level_given ? flag_level
                  : (log_path.empty() ? obs::LogLevel::kWarn
                                      : obs::LogLevel::kInfo);
  log_options.stderr_level = level_given ? flag_level : obs::LogLevel::kWarn;
  {
    const Status configured = obs::Logger::Global().Configure(log_options);
    if (!configured.ok()) return FailWith("log-out", configured);
  }

  // The manifest accumulates from here on; it is written on every exit path
  // below (success, failure, cancellation) when --run-manifest-out is given.
  obs::RunManifestBuilder manifest;
  const std::string manifest_path = args.GetString("run-manifest-out");
  g_manifest = &manifest;
  manifest.SetTool("homets_cli");
  {
    std::string cmdline;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) cmdline += ' ';
      cmdline += argv[i];
    }
    manifest.SetCommand(std::move(cmdline));
  }
  for (const auto& [flag, value] : args.flags) manifest.SetConfig(flag, value);
  // threads.used is the count the subcommand runs on: generate and convert
  // are serial, analyze records its shard pool (RunAnalyze), and profile,
  // motifs and stream run the similarity engine at its default count.
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  const bool serial = command == "generate" || command == "convert";
  manifest.SetThreads(hardware, serial ? 1 : ResolveThreadCount(0));

  // Arm fault injection before any work: the flag wins over the
  // HOMETS_FAILPOINTS environment variable; a malformed spec is a usage
  // error, not a run failure.
  {
    Status armed;
    if (args.Has("failpoints")) {
      int64_t fp_seed = 0;
      if (FlagIntOr(args, "failpoints-seed", 0, &fp_seed) != 0) return 2;
      armed = Failpoints::Global().Configure(args.GetString("failpoints"),
                                             static_cast<uint64_t>(fp_seed));
      manifest.SetFailpoints(args.GetString("failpoints"),
                             static_cast<uint64_t>(fp_seed));
    } else {
      armed = Failpoints::Global().ConfigureFromEnv();
    }
    if (!armed.ok()) {
      std::cerr << "failpoints: " << armed.ToString() << "\n";
      return 2;
    }
  }
  const auto dataset_options = DatasetOptionsFromFlags(args);
  if (!dataset_options.ok()) {
    std::cerr << "error: " << dataset_options.status().ToString() << "\n";
    return 2;
  }
  manifest.SetReadPolicy(args.GetString("read-policy", "strict"),
                         dataset_options->read.max_retries);
  for (const std::string& path : args.positional) {
    std::error_code ec;
    const uintmax_t bytes = std::filesystem::file_size(path, ec);
    manifest.AddInput(path, InputFormatLabel(path, *dataset_options),
                      ec ? 0 : static_cast<uint64_t>(bytes));
  }

  // Install the trace session before any work so every span of the run is
  // captured; uninstall before writing so the write itself is not traced.
  obs::TraceSession session;
  const std::string trace_path = args.GetString("trace-out");
  if (!trace_path.empty()) obs::InstallGlobalTraceSession(&session);

  int rc = 1;
  if (command == "generate") rc = RunGenerate(args);
  if (command == "convert") rc = RunConvert(args, *dataset_options);
  if (command == "profile") rc = RunProfile(args, *dataset_options);
  if (command == "motifs") rc = RunMotifs(args, *dataset_options);
  if (command == "stream") rc = RunStream(args, *dataset_options);
  if (command == "analyze") rc = RunAnalyze(args, *dataset_options);

  obs::InstallGlobalTraceSession(nullptr);
  if (!trace_path.empty() && rc == 0) {
    const Status status = WriteFile(trace_path, session.ToChromeJson());
    if (!status.ok()) rc = FailWith("trace-out", status);
  }
  const std::string metrics_path = args.GetString("metrics-out");
  if (!metrics_path.empty() && rc == 0) {
    const Status status =
        WriteFile(metrics_path, obs::MetricsRegistry::Global().ExportJson());
    if (!status.ok()) rc = FailWith("metrics-out", status);
  }
  // Flush any buffered log records (and close the file sink) before the
  // summary, so the JSONL file is complete whatever the outcome was.
  obs::Logger::Global().Close();
  g_manifest = nullptr;
  if (!manifest_path.empty()) {
    if (rc != 0) {
      // No-op when FailWith already recorded the real failure; covers exits
      // with no Status attached (usage errors inside subcommands, rc == 1).
      manifest.MarkFailed(
          "cli", Status::Unknown(StrFormat("exit code %d", rc)));
    }
    manifest.SetExitCode(rc);
    const Status written = manifest.WriteJson(manifest_path);
    if (!written.ok() && rc == 0) rc = FailWith("run-manifest-out", written);
  }
  if (rc == 0) PrintMetricsSummary(std::cerr);
  return rc;
}
