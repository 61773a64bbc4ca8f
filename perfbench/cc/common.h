#ifndef HOMETS_PERFBENCH_COMMON_H_
#define HOMETS_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

// Shared plumbing of the homets measuring program: run options, workload
// sizes, clocks, statistics, the metric catalog and the result line.
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary fixed origin.
int64_t NowNs();
double SecondsSince(Clock::time_point start);
/// Process CPU time (user + sys, all threads) consumed so far.
double ProcessCpuSeconds();
/// CPU time of the calling thread so far.
double ThreadCpuSeconds();
/// Peak resident set of this process so far, in MB (2^20 bytes).
double PeakRssMb();
/// CPUs this process may run on (what `nproc` prints).
int Nproc();

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

uint64_t Fnv1a64(std::string_view bytes);
std::string Hex64(uint64_t value);

/// Input sizes of one workload. `tiny` sizes exist for the smoke test.
struct Sizes {
  int gateways = 0;
  int weeks = 0;
  int shards = 0;  ///< fleet_analyze only
};
Sizes WorkloadSizes(const std::string& workload, bool tiny);
bool KnownWorkload(const std::string& workload);

/// Command-line options of `homets_perfbench run`.
struct RunOptions {
  std::string workload;
  std::string dir;        ///< generated inputs (and the run's outputs)
  uint64_t seed = 0;
  double seconds = 10.0;  ///< measured time; 0 = exactly one operation
  bool trace = false;
  bool tiny = false;
  int threads = 1;        ///< min(4, nproc)
  /// Expected output digest, from reference.json (empty: the first
  /// operation's output is the only reference for the later ones).
  std::string expect;
  /// Smoke-test hook: corrupt the reference before comparing.
  bool perturb_reference = false;
};

/// Accumulates the metrics of one run against the fixed catalog: every
/// catalog metric of the run's kind must be set exactly once, with the
/// catalog's unit, before the result line is written.
class MetricSet {
 public:
  explicit MetricSet(bool per_layer);
  void Set(const std::string& name, double value);
  /// Metrics the workload does not exercise read 0 (per-layer only).
  void ZeroUnset();
  /// Fails loudly (exit 3) if a catalog metric is missing or unknown.
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::string>> catalog_;  ///< name, unit
  std::map<std::string, double> values_;
};

/// The catalog: (name, unit) in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndCatalog();
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog();

/// What a workload run hands back to main.
struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  /// Digest of the canonical output (what reference.json records).
  std::string output_digest;
  std::string mismatch;  ///< first difference found, for the details line
  /// Self-describing extras: input sizes, sample counts, span summary.
  std::map<std::string, double> details;
  MetricSet metrics{false};
};

/// Escapes a string as a JSON string literal.
std::string JsonString(std::string_view text);
/// Formats a measured number with all its digits (round-trippable).
std::string JsonNumber(double value);

/// Compares each operation's canonical output with the reference (the
/// expected digest, when given, for the first operation; the first
/// operation's output for the later ones) and records the first mismatch.
class OutputGate {
 public:
  OutputGate(std::string expect, bool perturb);
  void Check(const std::string& canonical_output);
  const std::string& digest() const { return digest_; }
  const std::string& mismatch() const { return mismatch_; }
  bool ok() const { return mismatch_.empty(); }

 private:
  std::string expect_;
  bool perturb_;
  std::string first_output_;
  std::string digest_;
  std::string mismatch_;
};

/// Times `reps` calls of `setup` and returns the median wall seconds.
template <typename F>
double MedianSetupSeconds(int reps, F&& setup) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    setup();
    samples.push_back(SecondsSince(start));
  }
  return Median(std::move(samples));
}

/// Median seconds of the two calibration kernels (see SpeedScale) on the
/// benchmark host when the benchmark was defined.
inline constexpr double kReferenceSortSeconds = 0.0095;
inline constexpr double kReferenceAllocSeconds = 0.0006;

/// Scales a run's timings to the host's reference speed.
///
/// The benchmark host is a shared VM whose speed drifts by 10-40% over tens
/// of seconds. Two fixed kernels of the benchmark's own, timed between
/// operations, drift with the operations: sorting 100 000 doubles, and
/// allocating and queueing 20 000 small vectors. Of five kernels tried
/// (those two, memory streaming, random access, arithmetic), the geometric
/// mean of these two tracked all three workloads best: over 8 minutes the
/// spread of 25 s medians fell from 0.12-0.13 raw to 0.013-0.025 scaled.
/// Scaling keeps every change the program itself makes; the raw figures
/// are reported beside the scaled ones.
class SpeedScale {
 public:
  /// `threads`: how many threads the measured operations keep busy; the
  /// kernels run on as many at once, since a busy VM slows differently.
  explicit SpeedScale(int threads)
      : threads_(threads), before_(Slowdown(threads)) {}
  /// Calibrates again and returns the factor for the operation that ran
  /// since the previous call, from the slowdowns on both sides of it.
  double Next() {
    const double after = Slowdown(threads_);
    const double factor = 2.0 / (before_ + after);
    before_ = after;
    return factor;
  }

  /// The host's current slowdown against the reference: the geometric mean
  /// over the two kernels of the median time (5 runs on each of `threads`
  /// threads) over the kernel's reference time.
  static double Slowdown(int threads);

 private:
  int threads_;
  double before_;
};

/// Wall time, process CPU time and speed factor of each measured operation.
struct OpSamples {
  std::vector<double> wall_s, cpu_s, factor;
  void Add(double wall, double cpu, double speed_factor) {
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
    factor.push_back(speed_factor);
  }
  /// Median over operations of CPU ms per gateway, unscaled.
  double RawCpuMsPer(double gateways) const;
};

/// Sets the throughput metrics every workload reports alike — gateways,
/// minutes and rows per second, CPU ms per gateway: medians over the
/// operations of the scaled per-operation values. Records the unscaled
/// medians and the speed factors in `details`.
void SetThroughputMetrics(const OpSamples& ops, double gateways,
                          double minutes, double rows, MetricSet* metrics,
                          std::map<std::string, double>* details);

/// Closed-loop budget of a run: another operation starts only while one
/// more of the last one's length still ends within `seconds`, so a run
/// measures for about `seconds`. The first operation always runs.
inline bool AnotherFits(Clock::time_point start, double last_op_seconds,
                        double seconds) {
  return SecondsSince(start) + last_op_seconds <= seconds;
}

/// Number of setup repetitions whose median becomes setup_s.
inline constexpr int kSetupReps = 15;

}  // namespace perfbench

#endif  // HOMETS_PERFBENCH_COMMON_H_
