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
};

/// \brief DeviceTrace::TotalTraffic() read bin by bin from the two
/// directions without building it: the same span and the same bits, by
/// TimeSeries::Add's rule. ts::AddInto(&sum, view) adds the total in place.
/// The device must outlive the view.
class TotalTrafficView {
 public:
  explicit TotalTrafficView(const DeviceTrace& device);

  int64_t start_minute() const { return start_; }
  int64_t step_minutes() const { return step_; }
  size_t size() const { return size_; }
  int64_t EndMinute() const {
    return start_ + static_cast<int64_t>(size_) * step_;
  }
  /// Bin `i` of each direction on the view's grid, Missing outside the
  /// direction's span (outgoing throughout when the grids differ).
  double incoming(size_t i) const { return Bin(in_, i - in_offset_); }
  double outgoing(size_t i) const { return Bin(out_, i - out_offset_); }
  /// Bin `i` of TotalTraffic(); `i` < size().
  double operator[](size_t i) const {
    return out_ == nullptr ? (*in_)[i] : AddBins(incoming(i), outgoing(i));
  }
  /// TimeSeries::Add's rule for one bin: missing only when both are.
  static double AddBins(double a, double b) {
    if (ts::TimeSeries::IsMissing(a)) {
      return ts::TimeSeries::IsMissing(b) ? ts::TimeSeries::Missing() : b;
    }
    return ts::TimeSeries::IsMissing(b) ? a : a + b;
  }

 private:
  /// Bin `j` of `side` (`j` may have wrapped below zero), else Missing.
  static double Bin(const ts::TimeSeries* side, size_t j) {
    return side != nullptr && j < side->size() ? (*side)[j]
                                               : ts::TimeSeries::Missing();
  }

  const ts::TimeSeries* in_;
  const ts::TimeSeries* out_ = nullptr;  ///< null when the grids differ
  size_t in_offset_ = 0;  ///< incoming's first bin, in view bins
  size_t out_offset_ = 0;
  int64_t start_ = 0;
  int64_t step_ = 1;
  size_t size_ = 0;
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
