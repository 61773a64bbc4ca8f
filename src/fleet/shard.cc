#include "fleet/shard.h"

#include <sys/stat.h>

#include <cmath>
#include <map>
#include <utility>

#include "common/failpoint.h"
#include "core/motif.h"
#include "obs/trace.h"
#include "simgen/types.h"
#include "ts/time_series.h"

namespace homets::fleet {

GatewaySummary SummarizeGateway(int32_t gateway_id,
                                const simgen::GatewayTrace& trace,
                                const core::GatewayPipeline& pipeline,
                                const core::ProfilingOptions& profiling,
                                core::DominanceWorkspace* dominance) {
  GatewaySummary summary;
  summary.gateway_id = gateway_id;
  summary.devices_observed = static_cast<uint32_t>(trace.devices.size());
  const auto profile =
      core::ProfileGateway(trace, pipeline, profiling, dominance);
  if (profile.ok()) {
    summary.eligible = true;
    summary.dominant_count =
        static_cast<uint32_t>(profile->dominant_devices.size());
    summary.min_residents = static_cast<uint32_t>(profile->min_residents);
    summary.weekly_stationary = profile->weekly_stationary;
    summary.quietest_slot = profile->quietest_slot;
    summary.evening_share = profile->evening_share;
    for (const auto& [device, group] : profile->device_tau_groups) {
      switch (group) {
        case core::TauGroup::kSmall:
          ++summary.tau_small;
          break;
        case core::TauGroup::kMedium:
          ++summary.tau_medium;
          break;
        case core::TauGroup::kLarge:
          ++summary.tau_large;
          break;
      }
    }
  }
  // Daily motifs per gateway on the background-free aggregate, cut as the CLI
  // `motifs --period daily` cuts them. A gateway too short to mine simply
  // reports zero motifs.
  const auto windows =
      core::MotifWindows(pipeline.active, core::kDailyMotifWindowing);
  summary.daily_windows = static_cast<uint32_t>(windows.size());
  if (windows.size() >= 2) {
    const auto motifs = core::MotifDiscovery().Discover(windows);
    if (motifs.ok()) {
      summary.daily_motifs = static_cast<uint32_t>(motifs->size());
    }
  }
  return summary;
}

Result<std::vector<ShardPlan>> ShardPlanner::Plan(int n_gateways,
                                                  int n_shards) {
  if (n_gateways < 0) {
    return Status::InvalidArgument("ShardPlanner: negative gateway count");
  }
  if (n_shards < 1) {
    return Status::InvalidArgument("ShardPlanner: need >= 1 shard");
  }
  std::vector<ShardPlan> plans;
  plans.reserve(static_cast<size_t>(n_shards));
  const int base = n_gateways / n_shards;
  const int extra = n_gateways % n_shards;
  int begin = 0;
  for (int s = 0; s < n_shards; ++s) {
    const int size = base + (s < extra ? 1 : 0);
    plans.push_back(ShardPlan{s, begin, begin + size});
    begin += size;
  }
  return plans;
}

Result<FleetInputs> EnumerateFleetInputs(
    const std::vector<std::string>& paths,
    const io::DatasetOptions& options) {
  if (paths.empty()) {
    return Status::InvalidArgument("fleet: at least one input expected");
  }
  FleetInputs inputs;
  inputs.paths = paths;
  inputs.bytes.reserve(paths.size());
  inputs.mtime_ns.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    struct stat st = {};
    if (::stat(paths[i].c_str(), &st) != 0) {
      return Status::IoError("fleet: cannot stat '" + paths[i] + "'");
    }
    inputs.bytes.push_back(static_cast<uint64_t>(st.st_size));
    inputs.mtime_ns.push_back(
        static_cast<uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
        static_cast<uint64_t>(st.st_mtim.tv_nsec));
    HOMETS_ASSIGN_OR_RETURN(auto reader,
                            io::DatasetReader::Open(paths[i], options));
    for (size_t g = 0; g < reader.gateway_count(); ++g) {
      inputs.gateways.push_back(GatewaySourceRef{i, g});
    }
  }
  if (inputs.gateways.empty()) {
    return Status::InvalidArgument("fleet: inputs hold no gateways");
  }
  return inputs;
}

size_t ZipfBinIndex(double value) {
  // Absolute half-log2 bins over [2^-32, 2^32); everything outside clamps
  // to the edge bins. Fixed bin edges are what make per-shard counts
  // mergeable by plain addition.
  const double position = (std::log2(value) + 32.0) * 2.0;
  if (!(position > 0.0)) return 0;
  if (position >= static_cast<double>(kZipfBins)) return kZipfBins - 1;
  return static_cast<size_t>(position);
}

ShardRunner::ShardRunner(const FleetInputs* inputs,
                         io::DatasetOptions options,
                         core::ProfilingOptions profiling)
    : inputs_(inputs),
      options_(std::move(options)),
      profiling_(profiling) {}

Result<ShardResult> ShardRunner::RunShard(
    const ShardPlan& plan,
    const std::chrono::steady_clock::time_point* deadline,
    uint64_t attempt, core::GatewayWorkspace* workspace) const {
  if (Failpoints::Global().armed()) {
    HOMETS_RETURN_IF_ERROR(Failpoints::Global().InjectedErrorAt(
        kFailpointFleetShardRun,
        static_cast<uint64_t>(plan.shard_index) + 1, attempt));
  }
  if (plan.begin_gateway < 0 || plan.end_gateway < plan.begin_gateway ||
      static_cast<size_t>(plan.end_gateway) > inputs_->gateways.size()) {
    return Status::InvalidArgument("fleet: shard range out of bounds");
  }
  ShardResult result;
  result.plan = plan;
  result.zipf_bins.assign(kZipfBins, 0);
  result.gateways.reserve(
      static_cast<size_t>(plan.end_gateway - plan.begin_gateway));
  // Readers are opened per shard run (and cached per input file within it):
  // a retry starts from a clean slate and a poisoned file only fails the
  // shards that actually read it.
  std::map<size_t, io::DatasetReader> readers;
  core::GatewayWorkspace local;
  core::GatewayWorkspace& ws = workspace != nullptr ? *workspace : local;
  for (int g = plan.begin_gateway; g < plan.end_gateway; ++g) {
    if (deadline != nullptr && std::chrono::steady_clock::now() >= *deadline) {
      return Status::DeadlineExceeded("fleet: shard deadline passed");
    }
    obs::StageTimer stage("fleet.gateway");
    const GatewaySourceRef& ref = inputs_->gateways[static_cast<size_t>(g)];
    auto it = readers.find(ref.input_index);
    if (it == readers.end()) {
      HOMETS_ASSIGN_OR_RETURN(
          auto reader,
          io::DatasetReader::Open(inputs_->paths[ref.input_index], options_));
      it = readers.emplace(ref.input_index, std::move(reader)).first;
    }
    HOMETS_RETURN_IF_ERROR(
        it->second.ReadGateway(ref.gateway_index, &ws.trace,
                               &ws.spare_devices));
    core::BuildGatewayPipeline(ws.trace, &ws);
    result.gateways.push_back(SummarizeGateway(g, ws.trace, ws.pipeline,
                                               profiling_, &ws.dominance));
    obs::StageTimer zipf("fleet.zipf_bins");
    for (const double v : ws.pipeline.aggregate.values()) {
      if (!(v > 0.0) || std::isnan(v)) continue;
      ++result.zipf_bins[ZipfBinIndex(v)];
      ++result.values_binned;
    }
  }
  return result;
}

}  // namespace homets::fleet
