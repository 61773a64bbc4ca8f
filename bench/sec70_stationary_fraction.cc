// Section 7 (intro): fraction of strongly stationary gateways at 3-hour
// weekly windows — paper: 7% on raw traffic, rising to 11% after background
// removal. Demonstrates that background stripping reveals regularity.
#include <iostream>

#include "bench_util.h"
#include "core/background.h"
#include "core/stationarity.h"
#include "io/table.h"
#include "ts/time_series.h"

namespace {

using namespace homets;  // NOLINT: bench binary

// Fraction of gateways whose weekly windows at `granularity` pass
// Definition 2.
size_t CountStationary(const std::vector<ts::TimeSeries>& fleet,
                       int64_t granularity) {
  size_t stationary = 0;
  for (const auto& series : fleet) {
    const auto windows =
        ts::AggregateWindows(series, granularity, ts::kMinutesPerWeek, 0);
    if (windows.size() < 2) continue;
    const auto result = core::CheckStrongStationarity(windows);
    if (result.ok() && result->strongly_stationary) ++stationary;
  }
  return stationary;
}

void Run() {
  bench::FleetCache fleet(bench::PaperConfig());
  const int weeks = 4;
  const auto eligible = bench::WeeklyEligible(fleet.generator(), weeks);

  std::vector<ts::TimeSeries> raw, active;
  for (int id : eligible) {
    const auto& gw = fleet.Get(id);
    auto raw_series = gw.AggregateTraffic();
    auto act_series = core::ActiveAggregate(gw);
    auto raw_slice = raw_series.Slice(0, weeks * ts::kMinutesPerWeek);
    auto act_slice = act_series.Slice(0, weeks * ts::kMinutesPerWeek);
    raw.push_back(raw_slice.ok() ? std::move(raw_slice).value()
                                 : std::move(raw_series));
    active.push_back(act_slice.ok() ? std::move(act_slice).value()
                                    : std::move(act_series));
    fleet.Evict(id);
  }

  io::PrintSection(std::cout,
                   "Sec 7: strongly stationary gateways, weekly windows, "
                   "3 h aggregation");
  const size_t raw_stationary = CountStationary(raw, 180);
  const size_t active_stationary = CountStationary(active, 180);
  io::TextTable table({"input", "stationary", "of", "fraction", "paper"});
  table.AddRow({"raw traffic", bench::FmtInt(raw_stationary),
                bench::FmtInt(raw.size()),
                bench::Fmt(100.0 * raw_stationary /
                               std::max<size_t>(raw.size(), 1),
                           1) +
                    "%",
                "7%"});
  table.AddRow({"background removed", bench::FmtInt(active_stationary),
                bench::FmtInt(active.size()),
                bench::Fmt(100.0 * active_stationary /
                               std::max<size_t>(active.size(), 1),
                           1) +
                    "%",
                "11%"});
  table.Print(std::cout);
  std::cout << "  (paper: most gateways change behavior week to week; "
               "removing background traffic reveals more regularity)\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
