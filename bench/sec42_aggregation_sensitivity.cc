// Section 4.2(d): sensitivity of distribution similarity and cross-gateway
// correlation to the time-aggregation granularity — small bins make the
// within-week distributions differ (KS rejected) and the cross-gateway
// correlations low; coarse bins make both grow.
#include <iostream>

#include "bench_util.h"
#include "core/similarity.h"
#include "io/table.h"
#include "stattests/ks_test.h"
#include "ts/time_series.h"

namespace {

using namespace homets;  // NOLINT: bench binary

void Run() {
  bench::FleetCache fleet(bench::SmallConfig(16, 1));

  std::vector<ts::TimeSeries> raw;
  for (int id = 0; id < fleet.config().n_gateways; ++id) {
    raw.push_back(fleet.Get(id).AggregateTraffic());
    fleet.Evict(id);
  }

  io::PrintSection(std::cout,
                   "Sec 4.2d: effect of aggregation granularity");
  io::TextTable table({"granularity_min", "ks_rejected_day_pairs_%",
                       "mean_cross_gateway_cor", "significant_pairs_%"});
  for (const int64_t g : {1LL, 10LL, 60LL, 180LL, 360LL, 720LL}) {
    // Distribution similarity across days within each gateway.
    size_t ks_pairs = 0, ks_rejected = 0;
    for (const auto& series : raw) {
      const auto days = ts::AggregateWindows(series, g, ts::kMinutesPerDay, 0);
      for (size_t i = 0; i < days.size(); ++i) {
        for (size_t j = i + 1; j < days.size(); ++j) {
          const auto ks = stattests::KolmogorovSmirnov(days[i].values(),
                                                       days[j].values());
          if (!ks.ok()) continue;
          ++ks_pairs;
          if (ks->Rejected()) ++ks_rejected;
        }
      }
    }
    // Cross-gateway correlation at this granularity.
    double cor_sum = 0.0;
    size_t cor_pairs = 0, cor_significant = 0;
    for (size_t a = 0; a < raw.size(); ++a) {
      auto agg_a = ts::Aggregate(raw[a], g, 0, ts::AggKind::kSum);
      if (!agg_a.ok()) continue;
      for (size_t b = a + 1; b < raw.size(); ++b) {
        auto agg_b = ts::Aggregate(raw[b], g, 0, ts::AggKind::kSum);
        if (!agg_b.ok()) continue;
        const auto sim = core::CorrelationSimilarity(*agg_a, *agg_b);
        ++cor_pairs;
        cor_sum += sim.value;
        if (sim.significant) ++cor_significant;
      }
    }
    table.AddRow(
        {bench::FmtInt(static_cast<size_t>(g)),
         ks_pairs > 0
             ? bench::Fmt(100.0 * ks_rejected / static_cast<double>(ks_pairs), 1)
             : "n/a",
         cor_pairs > 0 ? bench::Fmt(cor_sum / static_cast<double>(cor_pairs))
                       : "n/a",
         cor_pairs > 0
             ? bench::Fmt(
                   100.0 * cor_significant / static_cast<double>(cor_pairs), 1)
             : "n/a"});
  }
  table.Print(std::cout);
  std::cout << "  (paper: smaller aggregation → more rejected KS tests and "
               "lower correlations; larger aggregation → distributions "
               "similar and correlations grow or vanish)\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
