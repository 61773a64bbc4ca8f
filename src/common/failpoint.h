#ifndef HOMETS_COMMON_FAILPOINT_H_
#define HOMETS_COMMON_FAILPOINT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace homets {

/// \brief What an armed failpoint does when it fires at its site.
enum class FailpointAction : uint8_t {
  kNone = 0,   ///< inactive (disarmed, no rule, or rule did not fire)
  kError,      ///< inject an IoError Status (transient, retryable)
  kCorrupt,    ///< mangle the data flowing through the site (e.g. a CSV row)
  kTruncate,   ///< cut the data stream short (e.g. mid-file EOF)
  kFail,       ///< fail the unit of work (e.g. a fleet shard)
};

/// \brief Counters for one failpoint site, for tests and reports.
struct FailpointStats {
  uint64_t hits = 0;   ///< times the site was evaluated while armed
  uint64_t fires = 0;  ///< times a non-kNone action was returned
};

/// \brief Deterministic, seeded fault-injection registry.
///
/// Off by default with zero hot-path cost: every instrumented site first
/// checks `armed()` — a single relaxed atomic load — and only takes the
/// registry mutex when a spec has been installed. Sites are named
/// `<module>.<operation>` in dotted lower_snake_case (the canonical list
/// lives in the kFailpoint* constants below and DESIGN.md §8).
///
/// Spec grammar (`--failpoints=` flag or HOMETS_FAILPOINTS env var):
///
///   spec  := entry (';' entry)*
///   entry := site '=' action modifier*
///   action   := off | error | corrupt | truncate | fail
///   modifier := '*' COUNT   fire at most COUNT times (default: unlimited)
///             | '@' START   first hit (1-based) eligible to fire (default 1)
///             | '~' PROB    fire with probability PROB per hit, drawn from
///                           a SplitMix64 stream seeded with
///                           seed ^ hash(site) — deterministic per spec+seed
///
/// e.g. `io.csv.open=error*2;io.csv.row=corrupt@3;fleet.shard.run=fail~0.25`.
/// Counted and windowed rules are exactly reproducible wherever the site's
/// hits are sequenced (all IO sites); probabilistic rules are reproducible
/// per hit index, so under a multi-threaded site the set of firing hit
/// indices is stable even though which task observes them may vary.
class Failpoints {
 public:
  /// The process-wide registry used by the HOMETS_FAILPOINT macros and all
  /// instrumented sites.
  static Failpoints& Global();

  /// Parses `spec` and replaces the installed rules. An empty spec disarms
  /// the registry. On a malformed spec, or one naming a site outside
  /// kFailpointSites, the registry is left unchanged and InvalidArgument is
  /// returned.
  Status Configure(std::string_view spec, uint64_t seed = 0);

  /// Configure() from the HOMETS_FAILPOINTS / HOMETS_FAILPOINTS_SEED
  /// environment variables; OK (and disarmed) when they are unset.
  Status ConfigureFromEnv();

  /// Removes every rule and disarms the registry.
  void Reset();

  /// True when any rule is installed. Relaxed atomic load — the only cost
  /// instrumented sites pay when fault injection is off.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Evaluates the rule at `site`; kNone when disarmed or no rule matches.
  FailpointAction Evaluate(std::string_view site);

  /// Schedule-independent variant for sites whose units carry a stable
  /// logical index (shard number, chunk number): the decision is a pure
  /// function of the armed rule and (`index`, `attempt`), never of hit
  /// arrival order, so `fleet.shard.run=fail@3` fires on shard index 3 under
  /// any `--shards`/thread-count combination. Both arguments are 1-based.
  /// Modifiers are reinterpreted per unit: `@K` makes indices >= K eligible,
  /// `*N` fires only the first N attempts at an eligible index (so
  /// `fail@3*1` fails shard 3 once and lets its retry through), and `~P`
  /// draws from a stream keyed on (seed, site, index, attempt).
  FailpointAction EvaluateAt(std::string_view site, uint64_t index,
                             uint64_t attempt = 1);

  /// Evaluate() mapped to a Status: kError becomes a retryable IoError,
  /// kFail becomes a ComputeError, anything else is OK (kCorrupt/kTruncate
  /// are data-shaping actions the site must apply itself).
  Status InjectedError(std::string_view site);

  /// EvaluateAt() mapped to a Status, same action mapping as InjectedError.
  Status InjectedErrorAt(std::string_view site, uint64_t index,
                         uint64_t attempt = 1);

  /// Counters for one site (zeros when the site has no rule).
  FailpointStats stats(std::string_view site) const;

 private:
  struct Rule {
    FailpointAction action = FailpointAction::kNone;
    uint64_t start = 1;                 ///< 1-based first eligible hit
    uint64_t max_fires = UINT64_MAX;    ///< '*COUNT' budget
    double probability = 1.0;           ///< '~PROB' per-hit chance
    uint64_t seed = 0;                  ///< seed ^ hash(site), for EvaluateAt
    SplitMix64 rng{0};                  ///< seeded stream for '~' draws
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  Failpoints() = default;

  mutable Mutex mu_;
  std::map<std::string, Rule, std::less<>> rules_ HOMETS_GUARDED_BY(mu_);
  std::atomic<bool> armed_{false};
};

/// Canonical failpoint site names. Instrumented call sites use these
/// constants so the injectable surface is greppable in one place.
inline constexpr std::string_view kFailpointCsvOpen = "io.csv.open";
inline constexpr std::string_view kFailpointCsvRow = "io.csv.row";
inline constexpr std::string_view kFailpointCsvWrite = "io.csv.write";
inline constexpr std::string_view kFailpointColOpen = "io.col.open";
inline constexpr std::string_view kFailpointColChunk = "io.col.chunk";
inline constexpr std::string_view kFailpointColWrite = "io.col.write";
inline constexpr std::string_view kFailpointFleetShardRun =
    "fleet.shard.run";
inline constexpr std::string_view kFailpointCkptWrite = "io.ckpt.write";
inline constexpr std::string_view kFailpointCkptRead = "io.ckpt.read";

/// Every site above; Configure() rejects a spec that names any other.
inline constexpr std::array kFailpointSites{
    kFailpointCsvOpen,       kFailpointCsvRow,    kFailpointCsvWrite,
    kFailpointColOpen,       kFailpointColChunk,  kFailpointColWrite,
    kFailpointFleetShardRun, kFailpointCkptWrite, kFailpointCkptRead};

/// Evaluates `site` with zero cost when fault injection is disarmed.
inline FailpointAction EvaluateFailpoint(std::string_view site) {
  Failpoints& fp = Failpoints::Global();
  return fp.armed() ? fp.Evaluate(site) : FailpointAction::kNone;
}

/// Returns the injected error from `site`, if any, out of the enclosing
/// function (which must return Status or Result<T>). Compiles to a single
/// relaxed load when fault injection is off.
#define HOMETS_FAILPOINT(site)                                         \
  do {                                                                 \
    if (::homets::Failpoints::Global().armed()) {                      \
      ::homets::Status _homets_fp_status =                             \
          ::homets::Failpoints::Global().InjectedError(site);          \
      if (!_homets_fp_status.ok()) return _homets_fp_status;           \
    }                                                                  \
  } while (false)

}  // namespace homets

#endif  // HOMETS_COMMON_FAILPOINT_H_
