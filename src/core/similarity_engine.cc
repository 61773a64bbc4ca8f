#include "core/similarity_engine.h"

#include <chrono>
#include <cmath>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace homets::core {

std::vector<double> SimilarityMatrix::CondensedDistances() const {
  std::vector<double> distances(cells_.size());
  for (size_t k = 0; k < cells_.size(); ++k) {
    distances[k] = IsValidIndex(k) ? 1.0 - cells_[k].value : 1.0;
  }
  return distances;
}

size_t SimilarityMatrix::invalid_count() const {
  size_t count = 0;
  for (const uint8_t flag : invalid_) count += flag;
  return count;
}

std::pair<size_t, size_t> SimilarityMatrix::PairAt(size_t n, size_t k) {
  // Row i owns indices [offset(i), offset(i+1)) with
  // offset(i) = i*n − i(i+1)/2. Invert with a float guess, then fix up.
  const double nf = static_cast<double>(n);
  const double kf = static_cast<double>(k);
  double guess =
      (2.0 * nf - 1.0 - std::sqrt((2.0 * nf - 1.0) * (2.0 * nf - 1.0) -
                                  8.0 * kf)) /
      2.0;
  size_t i = guess <= 0.0 ? 0 : static_cast<size_t>(guess);
  if (i >= n - 1) i = n - 2;
  auto offset = [n](size_t row) { return row * n - row * (row + 1) / 2; };
  while (i > 0 && offset(i) > k) --i;
  while (offset(i + 1) <= k) ++i;
  return {i, i + 1 + (k - offset(i))};
}

std::vector<correlation::PreparedSeries> SimilarityEngine::PrepareWindows(
    const std::vector<ts::TimeSeries>& windows) {
  std::vector<correlation::PreparedSeries> prepared;
  prepared.reserve(windows.size());
  for (const auto& window : windows) {
    prepared.push_back(correlation::PreparedSeries::Make(window.values()));
  }
  return prepared;
}

std::vector<correlation::PreparedSeries> SimilarityEngine::PrepareVectors(
    const std::vector<std::vector<double>>& series) {
  std::vector<correlation::PreparedSeries> prepared;
  prepared.reserve(series.size());
  for (const auto& values : series) {
    prepared.push_back(correlation::PreparedSeries::Make(values));
  }
  return prepared;
}

std::vector<correlation::PreparedSeries> SimilarityEngine::Prepare(
    const std::vector<ts::TimeSeries>& windows) const {
  obs::ScopedSpan span("similarity_engine.prepare");
  return PrepareWindows(windows);
}

namespace {

// ~64 pairs per dispatch block: coarse enough to amortize the atomic
// hand-off, fine enough to balance tie-heavy vs degenerate pairs.
constexpr size_t kPairsPerBlock = 64;

// Per-worker busy nanoseconds, owned by the worker during the loop (no
// synchronization needed: workers never share a slot) and folded into the
// utilization histogram afterwards.
class WorkerUtilization {
 public:
  explicit WorkerUtilization(size_t workers) : busy_ns_(workers, 0) {}

  template <typename Fn>
  void Timed(int worker, const Fn& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    busy_ns_[static_cast<size_t>(worker)] +=
        static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
  }

  void Publish(size_t pairs) const {
    auto& registry = obs::MetricsRegistry::Global();
    static obs::Counter* const pairs_computed =
        registry.GetCounter(obs::kEnginePairsComputed);
    static obs::Gauge* const workers_gauge =
        registry.GetGauge(obs::kEngineWorkers);
    static obs::Histogram* const worker_busy_us =
        registry.GetHistogram(obs::kEngineWorkerBusyUs);
    pairs_computed->Increment(pairs);
    workers_gauge->Set(static_cast<int64_t>(busy_ns_.size()));
    for (const uint64_t ns : busy_ns_) {
      if (ns > 0) worker_busy_us->Observe(static_cast<double>(ns) / 1e3);
    }
  }

 private:
  std::vector<uint64_t> busy_ns_;
};

}  // namespace

SimilarityMatrix SimilarityEngine::Pairwise(
    const std::vector<correlation::PreparedSeries>& prepared) const {
  const size_t n = prepared.size();
  SimilarityMatrix matrix(n);
  const size_t pairs = matrix.pair_count();
  if (pairs == 0) return matrix;
  obs::ScopedSpan span("similarity_engine.pairwise");
  const int threads =
      pairs < options_.min_parallel_pairs ? 1 : options_.threads;
  const size_t workers = static_cast<size_t>(ResolveThreadCount(threads));
  std::vector<correlation::PairWorkspace> workspaces(workers);
  WorkerUtilization utilization(workers);
  // One stage lookup up front; per-block ticks are then two relaxed adds
  // (nullptr when no tracker is installed — every run without --progress).
  obs::ProgressTracker::Stage* progress =
      obs::ProgressStage("engine.pairwise");
  if (progress != nullptr) progress->AddTotal(pairs);
  SimilarityResult* cells = matrix.mutable_cells();
  ParallelFor(pairs, threads, kPairsPerBlock,
              [&](size_t begin, size_t end, int worker) {
                utilization.Timed(worker, [&] {
                  correlation::PairWorkspace& ws =
                      workspaces[static_cast<size_t>(worker)];
                  auto [i, j] = SimilarityMatrix::PairAt(n, begin);
                  for (size_t k = begin; k < end; ++k) {
                    cells[k] = CorrelationSimilarity(prepared[i], prepared[j],
                                                     options_.similarity, &ws);
                    if (++j == n) {
                      ++i;
                      j = i + 1;
                    }
                  }
                });
                if (progress != nullptr) progress->Tick(end - begin);
              });
  utilization.Publish(pairs);
  return matrix;
}

Result<SimilarityMatrix> SimilarityEngine::PairwiseChecked(
    const std::vector<correlation::PreparedSeries>& prepared) const {
  const size_t n = prepared.size();
  SimilarityMatrix matrix(n);
  const size_t pairs = matrix.pair_count();
  if (pairs == 0) return matrix;
  obs::ScopedSpan span("similarity_engine.pairwise");
  const int threads =
      pairs < options_.min_parallel_pairs ? 1 : options_.threads;
  const size_t workers = static_cast<size_t>(ResolveThreadCount(threads));
  std::vector<correlation::PairWorkspace> workspaces(workers);
  WorkerUtilization utilization(workers);
  // The mask must exist before workers can mark blocks concurrently.
  if (options_.degrade_on_failure) matrix.EnsureValidityMask();
  obs::ProgressTracker::Stage* progress =
      obs::ProgressStage("engine.pairwise");
  if (progress != nullptr) progress->AddTotal(pairs);
  SimilarityResult* cells = matrix.mutable_cells();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline_expired = [&] {
    if (options_.deadline_ms <= 0.0) return false;
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    return elapsed_ms > options_.deadline_ms;
  };
  const Status status = ParallelForStatus(
      pairs, threads, kPairsPerBlock, options_.cancel,
      [&](size_t begin, size_t end, int worker) -> Status {
        if (deadline_expired()) {
          return Status::DeadlineExceeded(
              "similarity engine exceeded its deadline");
        }
        const FailpointAction injected =
            EvaluateFailpoint(kFailpointEnginePairBlock);
        if (injected == FailpointAction::kFail) {
          if (!options_.degrade_on_failure) {
            return Status::ComputeError(
                "injected by failpoint 'engine.pair_block'");
          }
          for (size_t k = begin; k < end; ++k) matrix.MarkInvalid(k);
          return Status::OK();
        }
        utilization.Timed(worker, [&] {
          correlation::PairWorkspace& ws =
              workspaces[static_cast<size_t>(worker)];
          auto [i, j] = SimilarityMatrix::PairAt(n, begin);
          for (size_t k = begin; k < end; ++k) {
            cells[k] = CorrelationSimilarity(prepared[i], prepared[j],
                                             options_.similarity, &ws);
            if (++j == n) {
              ++i;
              j = i + 1;
            }
          }
        });
        if (progress != nullptr) progress->Tick(end - begin);
        return Status::OK();
      });
  utilization.Publish(pairs);
  HOMETS_RETURN_IF_ERROR(status);
  return matrix;
}

std::vector<SimilarityResult> SimilarityEngine::PairwiseSelected(
    const std::vector<correlation::PreparedSeries>& prepared,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs) const {
  std::vector<SimilarityResult> results(pairs.size());
  if (pairs.empty()) return results;
  obs::ScopedSpan span("similarity_engine.pairwise");
  const int threads =
      pairs.size() < options_.min_parallel_pairs ? 1 : options_.threads;
  const size_t workers = static_cast<size_t>(ResolveThreadCount(threads));
  std::vector<correlation::PairWorkspace> workspaces(workers);
  WorkerUtilization utilization(workers);
  obs::ProgressTracker::Stage* progress =
      obs::ProgressStage("engine.pairwise");
  if (progress != nullptr) progress->AddTotal(pairs.size());
  ParallelFor(pairs.size(), threads, kPairsPerBlock,
              [&](size_t begin, size_t end, int worker) {
                utilization.Timed(worker, [&] {
                  correlation::PairWorkspace& ws =
                      workspaces[static_cast<size_t>(worker)];
                  for (size_t k = begin; k < end; ++k) {
                    results[k] = CorrelationSimilarity(
                        prepared[pairs[k].first], prepared[pairs[k].second],
                        options_.similarity, &ws);
                  }
                });
                if (progress != nullptr) progress->Tick(end - begin);
              });
  utilization.Publish(pairs.size());
  return results;
}

}  // namespace homets::core
