#ifndef HOMETS_SIMGEN_TYPES_H_
#define HOMETS_SIMGEN_TYPES_H_

#include <optional>
#include <string>
#include <vector>

#include "ts/time_series.h"

namespace homets::simgen {

/// \brief Device categories used by the paper (Section 3). `kUnlabeled` only
/// occurs as a *reported* type: the paper's MAC/name heuristic fails on some
/// devices, which the simulator reproduces with a label-corruption model.
enum class DeviceType {
  kPortable,
  kFixed,
  kNetworkEquipment,
  kGameConsole,
  kUnlabeled,
};

/// \brief Short name used in reports ("portable", "fixed", ...).
std::string DeviceTypeName(DeviceType type);

/// \brief A single wireless device's trace as the gateway reports it.
///
/// Per-minute byte counters; a minute is missing (NaN) when the device was
/// not connected or the gateway was not reporting.
struct DeviceTrace {
  std::string name;                 ///< e.g. "gw042-dev3"
  DeviceType true_type = DeviceType::kPortable;
  DeviceType reported_type = DeviceType::kPortable;  ///< after label noise
  ts::TimeSeries incoming;          ///< received bytes per minute
  ts::TimeSeries outgoing;          ///< transmitted bytes per minute

  /// Total (incoming + outgoing) traffic series.
  ts::TimeSeries TotalTraffic() const;

  /// TotalTraffic() into `*total`, reusing its buffer.
  void TotalTraffic(ts::TimeSeries* total) const;
};

/// \brief One residential gateway's full trace.
struct GatewayTrace {
  int id = 0;
  std::vector<DeviceTrace> devices;
  /// Number of residents, known only for surveyed gateways (the paper has a
  /// 49-home survey).
  std::optional<int> surveyed_residents;
  /// Simulator ground truth: the home was generated with low week-to-week
  /// behavioral drift. Real deployments have no such label — use it only to
  /// evaluate detectors, never inside them.
  bool regular_home = false;

  /// Aggregated gateway traffic: sum of total traffic over devices. Missing
  /// only where no device reported (gateway offline).
  ts::TimeSeries AggregateTraffic() const;

  /// Aggregated traffic split by direction.
  ts::TimeSeries AggregateIncoming() const;
  ts::TimeSeries AggregateOutgoing() const;

  /// Per-minute count of connected (reporting) devices; missing where the
  /// gateway was offline.
  ts::TimeSeries ConnectedDeviceCount() const;

  /// True if every one of the `weeks` weekly windows starting at
  /// `start_minute` has at least one observation (the paper's eligibility
  /// filter for weekly analyses).
  bool HasObservationEveryWeek(int64_t start_minute, int weeks) const;

  /// True if every one of the `days` daily windows has at least one
  /// observation (eligibility for daily analyses).
  bool HasObservationEveryDay(int64_t start_minute, int days) const;
};

}  // namespace homets::simgen

#endif  // HOMETS_SIMGEN_TYPES_H_
