#ifndef HOMETS_CORE_DOMINANCE_GRID_H_
#define HOMETS_CORE_DOMINANCE_GRID_H_

#include <cstdint>
#include <vector>

#include "ts/time_series.h"

namespace homets::core {

/// \brief The gateway aggregate's observed grid, the one n every device of a
/// gateway is compared on in Definition 4 (Section 6.2). Only the minutes
/// where the gateway was offline (aggregate missing) are dropped.
struct AggregateGrid {
  std::vector<int64_t> minutes;  ///< observed aggregate bins, in order
  std::vector<double> values;    ///< aggregate traffic at those bins
  int64_t step = 1;
};

/// \brief The observed bins of `aggregate`, with their minutes and values,
/// into `*grid`, reusing its buffers.
void MakeAggregateGrid(const ts::TimeSeries& aggregate, AggregateGrid* grid);

/// \brief `device_total` on `grid` into `*device_values`: minutes where the
/// gateway reported but the device did not (outside its span, off the grid
/// step, or missing) are zero traffic, not missing. `Series` is a
/// ts::TimeSeries or a simgen::TotalTrafficView.
template <typename Series>
void DeviceOnGrid(const Series& device_total, const AggregateGrid& grid,
                  std::vector<double>* device_values) {
  device_values->clear();
  device_values->reserve(grid.minutes.size());
  const int64_t start = device_total.start_minute();
  const int64_t end = device_total.EndMinute();
  for (const int64_t minute : grid.minutes) {
    double dev = 0.0;
    if (minute >= start && minute < end && (minute - start) % grid.step == 0) {
      const double v =
          device_total[static_cast<size_t>((minute - start) / grid.step)];
      if (!ts::TimeSeries::IsMissing(v)) dev = v;
    }
    device_values->push_back(dev);
  }
}

}  // namespace homets::core

#endif  // HOMETS_CORE_DOMINANCE_GRID_H_
