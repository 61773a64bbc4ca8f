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

/// \brief The observed bins of `aggregate`, with their minutes and values.
AggregateGrid MakeAggregateGrid(const ts::TimeSeries& aggregate);

/// \brief `device_total` on `grid` into `*device_values`: minutes where the
/// gateway reported but the device did not (outside its span, off the grid
/// step, or missing) are zero traffic, not missing.
void DeviceOnGrid(const ts::TimeSeries& device_total, const AggregateGrid& grid,
                  std::vector<double>* device_values);

}  // namespace homets::core

#endif  // HOMETS_CORE_DOMINANCE_GRID_H_
