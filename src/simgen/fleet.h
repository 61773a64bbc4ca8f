#ifndef HOMETS_SIMGEN_FLEET_H_
#define HOMETS_SIMGEN_FLEET_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "simgen/types.h"
#include "ts/time_series.h"

namespace homets::simgen {

/// \brief Knobs of the synthetic fleet.
///
/// Defaults are calibrated so the fleet reproduces the dataset statistics
/// the paper reports: 196 gateways, ~5 regular devices each (plus sporadic
/// guests), 78% of gateways weekly-eligible and ~51% daily-eligible, in/out
/// correlation near 0.92, background traffic below 5 kB/min for most devices
/// with a small heavy-background (mostly fixed) tail.
struct SimConfig {
  int n_gateways = 196;
  int weeks = 6;                    ///< horizon; the paper uses 4–6 weeks
  uint64_t seed = 20140317;         ///< dataset start date as default seed

  double long_outage_prob = 0.22;   ///< gateway misses 1–2 whole weeks
  double unreliable_daily_prob = 0.35;  ///< gateway misses 1–4 random days
  double unlabeled_prob = 0.25;     ///< device-type inference failure rate
  double regular_home_prob = 0.22;  ///< homes with low week-to-week drift
  int surveyed_gateways = 49;       ///< homes with known resident counts

  /// Horizon length in minutes.
  int64_t HorizonMinutes() const {
    return static_cast<int64_t>(weeks) * ts::kMinutesPerWeek;
  }
};

/// \brief Checks a SimConfig for usable values (positive sizes, probabilities
/// in [0, 1], surveyed subset within the fleet). FleetGenerator assumes a
/// valid config; callers taking user input (the CLI) should validate first.
Status ValidateSimConfig(const SimConfig& config);

/// \brief Deterministic lazy generator of gateway traces.
///
/// `Generate(id)` derives an independent RNG stream per gateway, so traces
/// are identical regardless of generation order and callers can stream
/// through the fleet one gateway at a time (a full 6-week gateway is a few
/// MB; the whole fleet at once would be GBs).
class FleetGenerator {
 public:
  explicit FleetGenerator(SimConfig config);

  const SimConfig& config() const { return config_; }

  /// All traces start at the epoch (Monday 00:00).
  int64_t start_minute() const { return 0; }

  /// Generates gateway `gateway_id` in [0, n_gateways).
  GatewayTrace Generate(int gateway_id) const;

 private:
  SimConfig config_;
  Rng master_;
};

}  // namespace homets::simgen

#endif  // HOMETS_SIMGEN_FLEET_H_
