// google-benchmark microbenchmarks for the framework's algorithmic kernels:
// correlation coefficients, the Definition 1 similarity, KS, DTW vs cor,
// aggregation, KDE, motif mining and fleet generation.
//
// Before the registered benchmarks run, main() executes the pairwise
// similarity scenario (1000 weekly windows, all ~500k pairs: legacy per-pair
// path vs the SimilarityEngine at several thread counts) and writes the
// machine-readable BENCH_similarity.json. Engine timings are best-of-N after
// a warm-up run, so the first thread count measured is not penalized for
// spinning up the pool and faulting in the prepared vectors. The same JSON
// carries the dominance-length kernel case ("dominance_kernels"): prepare,
// Pearson, Spearman, Kendall and the whole Definition 1 similarity, per call,
// on a zero-heavy simgen device grid against its gateway aggregate over a
// 6-week (60 480-minute) horizon. Flags:
//   --similarity_json=PATH     output path (default BENCH_similarity.json)
//   --similarity_windows=N     scenario size (default 1000 windows)
//   --similarity_only          skip the google-benchmark suite
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/motif.h"
#include "core/dominance_grid.h"
#include "core/similarity.h"
#include "core/similarity_engine.h"
#include "correlation/coefficients.h"
#include "correlation/prepared_series.h"
#include "distance/distance.h"
#include "obs/json_encoder.h"
#include "sax/sax.h"
#include "simgen/fleet.h"
#include "stats/kde.h"
#include "stattests/ks_test.h"
#include "ts/time_series.h"

namespace {

using namespace homets;  // NOLINT: bench binary

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.LogNormal(std::log(500.0), 1.0);
  return xs;
}

void BM_Pearson(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(n, 1);
  const auto y = RandomSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(correlation::Pearson(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Pearson)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 15);

void BM_Spearman(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(n, 3);
  const auto y = RandomSeries(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(correlation::Spearman(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Spearman)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 15);

void BM_Kendall(benchmark::State& state) {
  // The vector API: both sort profiles plus the O(n log n) pair count. The
  // naive O(n²) count would make minute-level dominance analysis infeasible.
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(n, 5);
  const auto y = RandomSeries(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(correlation::Kendall(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Kendall)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 15);

void BM_CorrelationSimilarity(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(n, 7);
  const auto y = RandomSeries(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CorrelationSimilarity(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CorrelationSimilarity)->Arg(21)->Arg(1 << 10)->Arg(1 << 14);

void BM_KolmogorovSmirnov(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(n, 9);
  const auto y = RandomSeries(n, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stattests::KolmogorovSmirnov(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KolmogorovSmirnov)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 15);

void BM_DtwFull(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(n, 11);
  const auto y = RandomSeries(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::DynamicTimeWarping(x, y));
  }
}
BENCHMARK(BM_DtwFull)->Arg(1 << 7)->Arg(1 << 9)->Arg(1 << 11);

void BM_DtwBanded(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(n, 13);
  const auto y = RandomSeries(n, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::DynamicTimeWarping(x, y, 16));
  }
}
BENCHMARK(BM_DtwBanded)->Arg(1 << 7)->Arg(1 << 9)->Arg(1 << 11);

void BM_Aggregate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ts::TimeSeries series(0, 1, RandomSeries(n, 15));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ts::Aggregate(series, 180, 0, ts::AggKind::kSum));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Aggregate)->Arg(10080)->Arg(40320);

void BM_KdeFitAndEvaluate(benchmark::State& state) {
  const auto sample = RandomSeries(static_cast<size_t>(state.range(0)), 16);
  for (auto _ : state) {
    auto kde = stats::KernelDensity::Fit(sample);
    benchmark::DoNotOptimize(kde->Evaluate(1000.0));
  }
}
BENCHMARK(BM_KdeFitAndEvaluate)->Arg(1 << 10)->Arg(1 << 13);

void BM_SaxEncode(benchmark::State& state) {
  const auto enc = sax::SaxEncoder::Make(8, 16).value();
  const auto xs = RandomSeries(static_cast<size_t>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.Encode(xs));
  }
}
BENCHMARK(BM_SaxEncode)->Arg(1 << 8)->Arg(1 << 12);

void BM_MotifDiscovery(benchmark::State& state) {
  // Windows shaped like the daily-motif workload: 8 bins each.
  Rng rng(18);
  const size_t n_windows = static_cast<size_t>(state.range(0));
  std::vector<ts::TimeSeries> windows;
  for (size_t w = 0; w < n_windows; ++w) {
    std::vector<double> v(8);
    const int family = static_cast<int>(w % 4);
    for (size_t i = 0; i < 8; ++i) {
      v[i] = (i == static_cast<size_t>(family * 2) ? 1e6 : 100.0) *
             rng.LogNormal(0.0, 0.2);
    }
    windows.emplace_back(static_cast<int64_t>(w) * ts::kMinutesPerDay, 180,
                         std::move(v));
  }
  core::MotifDiscovery miner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.Discover(windows));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n_windows));
}
BENCHMARK(BM_MotifDiscovery)->Arg(64)->Arg(256)->Arg(1024);

void BM_SimilarityEnginePairwise(benchmark::State& state) {
  // Arg 0: windows; arg 1: engine threads. Windows are weekly series at
  // 3-hour bins (56 values), the Figure 3 / stationarity workload shape.
  const size_t n_windows = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> windows;
  windows.reserve(n_windows);
  for (size_t w = 0; w < n_windows; ++w) {
    windows.push_back(RandomSeries(56, 1000 + w));
  }
  const auto prepared = core::SimilarityEngine::PrepareVectors(windows);
  core::SimilarityEngineOptions options;
  options.threads = static_cast<int>(state.range(1));
  const core::SimilarityEngine engine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Pairwise(prepared));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(n_windows * (n_windows - 1) / 2));
}
BENCHMARK(BM_SimilarityEnginePairwise)
    ->Args({128, 1})
    ->Args({128, 4})
    ->Args({512, 1})
    ->Args({512, 4});

void BM_FleetGenerateGateway(benchmark::State& state) {
  simgen::SimConfig config;
  config.n_gateways = 4;
  config.weeks = static_cast<int>(state.range(0));
  config.seed = 19;
  simgen::FleetGenerator gen(config);
  int id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Generate(id % config.n_gateways));
    ++id;
  }
}
BENCHMARK(BM_FleetGenerateGateway)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Median of a non-empty sample (mean of the middle two for even sizes).
double MedianOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

// The per-device work of Definition 4 at week-scale n, one kernel at a time.
// The device is the gateway's most zero-heavy device that is not all zero,
// put on the aggregate's grid by core::DeviceOnGrid exactly as
// FindDominantDevices does. The simgen gateway has no outages, so n is
// nearly the whole kWeeks x 10 080-minute horizon: only the minutes where
// no device reported drop out. Each kernel runs kTrials timed calls after
// one warm-up call; the entry reports the fastest call (min), the median
// and the median absolute deviation, in microseconds. Writes one object to
// `out`.
void RunDominanceKernelScenario(obs::JsonEncoder* out) {
  constexpr int kWeeks = 6;
  simgen::SimConfig config;
  config.n_gateways = 1;
  config.weeks = kWeeks;
  config.seed = 20140317;
  config.long_outage_prob = 0.0;
  config.unreliable_daily_prob = 0.0;
  const simgen::GatewayTrace gateway =
      simgen::FleetGenerator(config).Generate(0);
  core::AggregateGrid grid;
  core::MakeAggregateGrid(gateway.AggregateTraffic(), &grid);
  const std::vector<double>& agg = grid.values;
  std::vector<double> device;
  size_t device_zeros = 0;
  for (const auto& trace : gateway.devices) {
    std::vector<double> on_grid;
    core::DeviceOnGrid(trace.TotalTraffic(), grid, &on_grid);
    const size_t zeros = static_cast<size_t>(
        std::count(on_grid.begin(), on_grid.end(), 0.0));
    if (zeros < on_grid.size() && (device.empty() || zeros > device_zeros)) {
      device = std::move(on_grid);
      device_zeros = zeros;
    }
  }

  using Clock = std::chrono::steady_clock;
  constexpr int kTrials = 15;
  using correlation::PreparedSeries;
  const PreparedSeries px = PreparedSeries::Make(device);
  const PreparedSeries py = PreparedSeries::Make(agg);
  correlation::PairWorkspace workspace;
  out->BeginObject()
      .Member("weeks", kWeeks)
      .Member("horizon_minutes", static_cast<size_t>(kWeeks) *
                                     static_cast<size_t>(ts::kMinutesPerWeek))
      .Member("n", device.size())
      .Member("device_zero_share", static_cast<double>(device_zeros) /
                                       static_cast<double>(device.size()))
      .Member("device_tie_groups", px.group_offsets().size() - 1)
      .Member("aggregate_tie_groups", py.group_offsets().size() - 1)
      .Member("trials", kTrials)
      .Key("kernels")
      .BeginArray();
  const auto time_kernel = [&](const char* name, const auto& call) {
    std::vector<double> us;
    for (int trial = -1; trial < kTrials; ++trial) {
      const auto start = Clock::now();
      call();
      const double elapsed =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      if (trial >= 0) us.push_back(elapsed);  // trial -1 is the warm-up
    }
    const double min = *std::min_element(us.begin(), us.end());
    const double median = MedianOf(us);
    std::vector<double> deviations;
    for (const double t : us) deviations.push_back(std::fabs(t - median));
    out->BeginObject()
        .Member("kernel", name)
        .Member("min_us", min)
        .Member("median_us", median)
        .Member("mad_us", MedianOf(deviations))
        .EndObject();
    std::cout << "dominance kernel " << name << ": min " << bench::Fmt(min, 1)
              << " us, median " << bench::Fmt(median, 1) << " us\n";
  };
  time_kernel("prepare", [&] {
    benchmark::DoNotOptimize(PreparedSeries::Make(device));
  });
  time_kernel("pearson", [&] {
    benchmark::DoNotOptimize(correlation::Pearson(px, py, &workspace));
  });
  time_kernel("spearman", [&] {
    benchmark::DoNotOptimize(correlation::Spearman(px, py, &workspace));
  });
  time_kernel("kendall", [&] {
    benchmark::DoNotOptimize(correlation::Kendall(px, py, &workspace));
  });
  time_kernel("similarity", [&] {
    benchmark::DoNotOptimize(core::CorrelationSimilarity(
        px, py, core::SimilarityOptions{}, &workspace));
  });
  out->EndArray().EndObject();
}

// The acceptance scenario: all pairs of 1000 weekly windows (56 bins,
// 499,500 pairs). Times the legacy per-pair vector path against the
// SimilarityEngine at several thread counts, verifies the engine output is
// bit-identical to the legacy path and across thread counts, and writes the
// numbers to `path` as JSON.
void RunSimilarityScenario(const std::string& path, size_t n_windows) {
  constexpr size_t kBins = 56;
  std::vector<std::vector<double>> windows;
  windows.reserve(n_windows);
  for (size_t w = 0; w < n_windows; ++w) {
    windows.push_back(RandomSeries(kBins, 1000 + w));
  }
  const size_t n_pairs = n_windows * (n_windows - 1) / 2;

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };

  // Legacy path: every pair re-ranks and re-sorts both windows from scratch.
  std::vector<double> legacy(n_pairs);
  const auto legacy_start = Clock::now();
  size_t pair = 0;
  for (size_t i = 0; i < n_windows; ++i) {
    for (size_t j = i + 1; j < n_windows; ++j) {
      legacy[pair++] =
          core::CorrelationSimilarity(windows[i], windows[j]).value;
    }
  }
  const double legacy_seconds = seconds_since(legacy_start);

  const int hardware = bench::HardwareThreads();
  std::vector<int> thread_counts = {1, 4};
  if (hardware != 1 && hardware != 4) thread_counts.push_back(hardware);

  obs::JsonEncoder json;
  json.BeginObject()
      .Member("scenario", "pairwise_correlation_similarity")
      .Member("windows", n_windows)
      .Member("bins_per_window", kBins)
      .Member("pairs", n_pairs)
      .Member("hardware_threads", hardware)
      .Key("legacy_per_pair")
      .BeginObject()
      .Member("seconds", legacy_seconds)
      .Member("pairs_per_sec", static_cast<double>(n_pairs) / legacy_seconds)
      .EndObject()
      .Key("engine")
      .BeginArray();
  bool deterministic = true;
  bool matches_legacy = true;
  std::vector<core::SimilarityResult> reference;
  double best_speedup = 0.0;
  constexpr int kTrials = 3;
  for (const int threads : thread_counts) {
    core::SimilarityEngineOptions options;
    options.threads = threads;
    // One untimed warm-up, then best-of-kTrials: the first Pairwise on a
    // fresh engine pays pool spin-up and cold caches, which would otherwise
    // be billed entirely to whichever thread count runs first.
    double engine_seconds = 0.0;
    double prepare_seconds = 0.0;
    double pairwise_seconds = 0.0;
    core::SimilarityMatrix matrix;
    for (int trial = -1; trial < kTrials; ++trial) {
      const core::SimilarityEngine engine(options);
      // Prepare is inside the timed region: the legacy path pays its
      // profiling per pair, so the engine must pay its one-time profiling
      // here too.
      const auto start = Clock::now();
      const std::vector<correlation::PreparedSeries> prepared =
          core::SimilarityEngine::PrepareVectors(windows);
      const double trial_prepare_seconds = seconds_since(start);
      core::SimilarityMatrix trial_matrix = engine.Pairwise(prepared);
      const double trial_seconds = seconds_since(start);
      if (trial < 0) continue;  // warm-up, discard
      if (trial == 0 || trial_seconds < engine_seconds) {
        engine_seconds = trial_seconds;
        prepare_seconds = trial_prepare_seconds;
        pairwise_seconds = trial_seconds - trial_prepare_seconds;
        matrix = std::move(trial_matrix);
      }
    }

    for (size_t k = 0; k < n_pairs; ++k) {
      if (!same_bits(matrix.cells()[k].value, legacy[k])) {
        matches_legacy = false;
        break;
      }
    }
    if (reference.empty()) {
      reference = matrix.cells();
    } else {
      for (size_t k = 0; k < n_pairs; ++k) {
        if (!same_bits(matrix.cells()[k].value, reference[k].value) ||
            matrix.cells()[k].source != reference[k].source) {
          deterministic = false;
          break;
        }
      }
    }

    const double speedup = legacy_seconds / engine_seconds;
    best_speedup = std::max(best_speedup, speedup);
    json.BeginObject()
        .Member("threads", threads)
        .Member("seconds", engine_seconds)
        .Member("prepare_seconds", prepare_seconds)
        .Member("pairwise_seconds", pairwise_seconds)
        .Member("trials", kTrials)
        .Member("pairs_per_sec", static_cast<double>(n_pairs) / engine_seconds)
        .Member("speedup_vs_legacy", speedup)
        .EndObject();
  }
  json.EndArray()
      .Member("best_speedup_vs_legacy", best_speedup)
      .Member("engine_matches_legacy_bitwise", matches_legacy)
      .Member("deterministic_across_threads", deterministic)
      .Key("dominance_kernels");
  RunDominanceKernelScenario(&json);
  json.EndObject();

  std::ofstream out(path);
  out << json.str();
  std::cout << "similarity scenario: " << n_pairs << " pairs, legacy "
            << bench::Fmt(legacy_seconds) << " s, best engine speedup "
            << bench::Fmt(best_speedup, 2) << "x, deterministic="
            << (deterministic ? "yes" : "no") << ", matches_legacy="
            << (matches_legacy ? "yes" : "no") << " -> " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_similarity.json";
  size_t n_windows = 1000;
  bool similarity_only = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--similarity_json=", 0) == 0) {
      json_path = arg.substr(std::string("--similarity_json=").size());
    } else if (arg.rfind("--similarity_windows=", 0) == 0) {
      const long parsed =
          std::atol(arg.c_str() + std::string("--similarity_windows=").size());
      if (parsed < 2) {
        std::cerr << "bad " << arg << ": need at least 2 windows\n";
        return 1;
      }
      n_windows = static_cast<size_t>(parsed);
    } else if (arg == "--similarity_only") {
      similarity_only = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // Validate flags before the multi-second scenario run so a typo'd flag
  // fails fast instead of overwriting the JSON artifact first.
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }

  RunSimilarityScenario(json_path, n_windows);
  if (similarity_only) return 0;

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
