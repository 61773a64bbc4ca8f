#include "fleet/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "fleet/checkpoint.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "stats/zipf_fit.h"

namespace homets::fleet {

namespace {

struct FleetMetrics {
  obs::Counter* shards_planned;
  obs::Counter* shards_run;
  obs::Counter* shards_resumed;
  obs::Counter* shards_quarantined;
  obs::Counter* shard_retries;
  obs::Counter* checkpoints_loaded;
  obs::Counter* checkpoints_discarded;
  obs::Counter* gateways_analyzed;
};

const FleetMetrics& Metrics() {
  static const FleetMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return FleetMetrics{
        registry.GetCounter(obs::kFleetShardsPlanned),
        registry.GetCounter(obs::kFleetShardsRun),
        registry.GetCounter(obs::kFleetShardsResumed),
        registry.GetCounter(obs::kFleetShardsQuarantined),
        registry.GetCounter(obs::kFleetShardRetries),
        registry.GetCounter(obs::kFleetCheckpointsLoaded),
        registry.GetCounter(obs::kFleetCheckpointsDiscarded),
        registry.GetCounter(obs::kFleetGatewaysAnalyzed)};
  }();
  return metrics;
}

/// Removes the LOCK sentinel when the run leaves the directory, however it
/// leaves (success or fail-fast abort). A SIGKILL skips this —
/// that is the stale-lock reclaim path in AcquireFleetLock.
class FleetLockGuard {
 public:
  explicit FleetLockGuard(std::string dir) : dir_(std::move(dir)) {}
  FleetLockGuard(const FleetLockGuard&) = delete;
  FleetLockGuard& operator=(const FleetLockGuard&) = delete;
  ~FleetLockGuard() {
    if (!dir_.empty()) ReleaseFleetLock(dir_);
  }

 private:
  std::string dir_;
};

}  // namespace

FleetOrchestrator::FleetOrchestrator(std::vector<std::string> inputs,
                                     FleetOptions options)
    : inputs_(std::move(inputs)), options_(std::move(options)) {}

Result<FleetReport> FleetOrchestrator::Analyze() {
  if (options_.n_shards < 1) {
    return Status::InvalidArgument("fleet: --shards must be >= 1");
  }
  if (options_.max_attempts < 1) {
    return Status::InvalidArgument("fleet: need >= 1 attempt per shard");
  }
  HOMETS_ASSIGN_OR_RETURN(
      const FleetInputs inputs,
      EnumerateFleetInputs(inputs_, options_.dataset));
  HOMETS_ASSIGN_OR_RETURN(
      const std::vector<ShardPlan> plans,
      ShardPlanner::Plan(static_cast<int>(inputs.gateways.size()),
                         options_.n_shards));
  const std::string format_name(io::InputFormatName(
      io::GuessFormat(inputs.paths.front(), options_.dataset.format)));
  const uint64_t fingerprint =
      FleetFingerprint(inputs, options_.n_shards, format_name);
  Metrics().shards_planned->Increment(plans.size());

  FleetReport report;
  report.n_gateways = static_cast<int>(inputs.gateways.size());
  report.n_shards = options_.n_shards;
  report.zipf_bins.assign(kZipfBins, 0);

  const bool checkpointing = !options_.checkpoint_dir.empty();
  std::string locked_dir;
  if (checkpointing) {
    HOMETS_RETURN_IF_ERROR(
        AcquireFleetLock(options_.checkpoint_dir, fingerprint));
    locked_dir = options_.checkpoint_dir;
  }
  // The guard exists from the instant the lock is held, so every exit path
  // below — including a failed manifest write — releases the LOCK.
  FleetLockGuard lock_guard(locked_dir);
  if (checkpointing) {
    HOMETS_RETURN_IF_ERROR(WriteFleetManifest(
        options_.checkpoint_dir, fingerprint, options_.n_shards,
        report.n_gateways));
  }

  // Phase 1: load whatever valid checkpoints the directory holds.
  // `done` is vector<char>, not vector<bool>: workers set distinct slots
  // concurrently in Phase 2, and vector<bool>'s bit-packing would make
  // those writes race on shared words.
  std::vector<ShardResult> results(plans.size());
  std::vector<char> done(plans.size(), 0);
  if (checkpointing && options_.resume) {
    for (size_t s = 0; s < plans.size(); ++s) {
      auto loaded = ReadShardCheckpoint(options_.checkpoint_dir,
                                        plans[s].shard_index, fingerprint);
      if (loaded.ok()) {
        results[s] = std::move(*loaded);
        done[s] = 1;
        Metrics().checkpoints_loaded->Increment();
        Metrics().shards_resumed->Increment();
        ++report.shards_resumed;
        continue;
      }
      if (loaded.status().code() == StatusCode::kNotFound) continue;
      // Present but torn / stale / unreadable: discard and re-run.
      obs::LogWarn("fleet", "discarding unusable shard checkpoint",
                   {obs::LogField::Int("shard", plans[s].shard_index),
                    obs::LogField::Str("reason",
                                       loaded.status().ToString())});
      Metrics().checkpoints_discarded->Increment();
      ++report.checkpoints_discarded;
    }
  }
  std::vector<size_t> pending;
  for (size_t s = 0; s < plans.size(); ++s) {
    if (!done[s]) pending.push_back(s);
  }

  // Phase 2: run the remainder on the pool, one shard per block. Each shard
  // retries locally and leaves its final Status and attempt count in its own
  // slot of `outcomes`; workers write only their own shards' slots.
  const ShardRunner runner(&inputs, options_.dataset, options_.profiling);
  std::vector<QuarantinedShard> outcomes(plans.size());
  const auto run_shard = [&](size_t slot) {
    const ShardPlan& plan = plans[slot];
    QuarantinedShard& outcome = outcomes[slot];
    outcome.shard_index = plan.shard_index;
    for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
      outcome.attempts = attempt;
      if (attempt > 1) {
        Metrics().shard_retries->Increment();
        if (options_.retry_backoff_ms > 0.0) {
          // Cap the doubling exponent: --shard-attempts is unbounded and a
          // shift past 63 would be UB (and the sleep absurd).
          const double factor =
              static_cast<double>(1ull << std::min(attempt - 2, 20));
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(
                  options_.retry_backoff_ms * factor));
        }
      }
      // The per-attempt deadline is checked inline at each gateway
      // boundary; no thread watches the clock.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  options_.shard_deadline_ms));
      auto result = runner.RunShard(
          plan, options_.shard_deadline_ms > 0.0 ? &deadline : nullptr,
          static_cast<uint64_t>(attempt));
      if (result.ok()) {
        Status persisted = Status::OK();
        if (checkpointing) {
          persisted = WriteShardCheckpoint(options_.checkpoint_dir, *result,
                                           fingerprint,
                                           static_cast<uint64_t>(attempt));
        }
        if (persisted.ok()) {
          // Counted once, here: a failed or unpersisted attempt's gateways
          // are not, and neither are a resumed checkpoint's.
          Metrics().gateways_analyzed->Increment(result->gateways.size());
          results[slot] = std::move(*result);
          done[slot] = 1;
          Metrics().shards_run->Increment();
          outcome.status = Status::OK();
          break;
        }
        outcome.status = persisted;  // checkpoint write failures are retryable
      } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
        outcome.status = Status::DeadlineExceeded(
            StrFormat("fleet: shard %d exceeded its %.0f ms deadline",
                      plan.shard_index, options_.shard_deadline_ms));
      } else {
        outcome.status = result.status();
      }
    }
  };
  ParallelFor(pending.size(), options_.threads, 1,
              [&](size_t begin, size_t end, int) {
                for (size_t p = begin; p < end; ++p) run_shard(pending[p]);
              });

  // Phase 3: merge strictly by shard index — never completion order — so
  // the report is bit-identical across thread counts and resume patterns.
  // Under fail-fast the lowest-index failure aborts the run.
  for (const QuarantinedShard& outcome : outcomes) {
    if (outcome.status.ok()) continue;
    if (!options_.quarantine) return outcome.status;
    obs::LogWarn("fleet", "quarantining shard",
                 {obs::LogField::Int("shard", outcome.shard_index),
                  obs::LogField::Int("attempts", outcome.attempts),
                  obs::LogField::Str("status", outcome.status.ToString())});
    Metrics().shards_quarantined->Increment();
    report.quarantined.push_back(outcome);
  }
  report.degraded = !report.quarantined.empty();
  for (size_t s = 0; s < plans.size(); ++s) {
    if (!done[s]) continue;
    const ShardResult& shard = results[s];
    report.gateways.insert(report.gateways.end(), shard.gateways.begin(),
                           shard.gateways.end());
    for (size_t b = 0; b < kZipfBins; ++b) {
      report.zipf_bins[b] += shard.zipf_bins[b];
    }
    report.values_binned += shard.values_binned;
  }
  return report;
}

std::string FormatFleetReport(const FleetReport& report) {
  std::string out;
  out += StrFormat("fleet report: %d gateways in %d shards\n",
                   report.n_gateways, report.n_shards);
  size_t eligible = 0;
  size_t weekly_stationary = 0;
  size_t dominance_hist[4] = {0, 0, 0, 0};
  uint64_t min_residents_total = 0;
  double evening_share_sum = 0.0;
  size_t quietest_hist[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  uint64_t tau_small = 0, tau_medium = 0, tau_large = 0;
  uint64_t daily_motifs = 0, daily_windows = 0;
  for (const GatewaySummary& g : report.gateways) {
    daily_motifs += g.daily_motifs;
    daily_windows += g.daily_windows;
    tau_small += g.tau_small;
    tau_medium += g.tau_medium;
    tau_large += g.tau_large;
    if (!g.eligible) continue;
    ++eligible;
    if (g.weekly_stationary) ++weekly_stationary;
    ++dominance_hist[std::min<uint32_t>(g.dominant_count, 3)];
    min_residents_total += g.min_residents;
    evening_share_sum += g.evening_share;
    if (g.quietest_slot >= 0 && g.quietest_slot < 8) {
      ++quietest_hist[g.quietest_slot];
    }
  }
  out += StrFormat("gateways analyzed: %zu (%zu eligible, %zu ineligible)\n",
                   report.gateways.size(), eligible,
                   report.gateways.size() - eligible);
  const auto zipf = stats::FitZipfFromFrequencies(report.zipf_bins);
  if (zipf.ok()) {
    out += StrFormat(
        "zipf rank-frequency: exponent=%.4f r2=%.4f ranks=%zu over %llu "
        "values\n",
        zipf->exponent, zipf->r_squared, zipf->ranks_used,
        static_cast<unsigned long long>(report.values_binned));
  } else {
    out += "zipf rank-frequency: not fitted (" + zipf.status().ToString() +
           ")\n";
  }
  out += StrFormat(
      "dominance histogram (eligible): 0:%zu 1:%zu 2:%zu 3+:%zu\n",
      dominance_hist[0], dominance_hist[1], dominance_hist[2],
      dominance_hist[3]);
  out += StrFormat("weekly stationary: %zu of %zu eligible\n",
                   weekly_stationary, eligible);
  out += StrFormat("min residents (sum over eligible): %llu\n",
                   static_cast<unsigned long long>(min_residents_total));
  size_t quietest_mode = 0;
  for (size_t s = 1; s < 8; ++s) {
    if (quietest_hist[s] > quietest_hist[quietest_mode]) quietest_mode = s;
  }
  out += StrFormat("quietest 3h slot (mode): %zu\n", quietest_mode);
  out += StrFormat(
      "mean evening share (eligible): %.6f\n",
      eligible == 0 ? 0.0 : evening_share_sum / static_cast<double>(eligible));
  out += StrFormat("tau groups: small=%llu medium=%llu large=%llu\n",
                   static_cast<unsigned long long>(tau_small),
                   static_cast<unsigned long long>(tau_medium),
                   static_cast<unsigned long long>(tau_large));
  out += StrFormat("daily motifs: %llu from %llu windows\n",
                   static_cast<unsigned long long>(daily_motifs),
                   static_cast<unsigned long long>(daily_windows));
  if (report.degraded) {
    out += StrFormat("DEGRADED: %zu shard(s) quarantined\n",
                     report.quarantined.size());
    for (const QuarantinedShard& q : report.quarantined) {
      out += StrFormat("  shard %d: %s (attempts: %d)\n", q.shard_index,
                       q.status.ToString().c_str(), q.attempts);
    }
  } else {
    out += "quarantined shards: none\n";
  }
  return out;
}

}  // namespace homets::fleet
