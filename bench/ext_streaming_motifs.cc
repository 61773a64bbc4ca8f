// Extension (the paper's concluding future work): motif analysis in a
// streaming setting. Replays the synthetic fleet minute by minute through
// WindowAssembler → StreamingMotifMiner and verifies the stream recovers
// the same motif structure as the batch miner, reporting throughput.
#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "core/motif.h"
#include "core/streaming.h"
#include "io/table.h"
#include "obs/report.h"

namespace {

using namespace homets;  // NOLINT: bench binary

void Run() {
  bench::FleetCache fleet(bench::SmallConfig(30, 4));
  const int days = bench::ClampDays(fleet.config(), 28);

  // Batch reference.
  const auto set = bench::DailyMotifWindows(&fleet, days);
  const auto batch = core::MotifDiscovery().Discover(set.windows);
  std::cout << "batch: " << (batch.ok() ? batch->size() : 0) << " motifs from "
            << set.windows.size() << " windows\n";

  // Stream replay: per-minute active traffic through the assembler.
  constexpr core::MotifWindowing kDaily = core::kDailyMotifWindowing;
  auto assembler =
      core::WindowAssembler::Make(kDaily.window_minutes,
                                  kDaily.granularity_minutes,
                                  kDaily.anchor_offset_minutes)
          .value();
  core::StreamingMotifMiner miner(core::MotifOptions{}, 10000);
  size_t minutes_processed = 0;
  size_t windows_streamed = 0;
  obs::RunManifestBuilder run;
  {
    obs::StageTimer stage("stream_replay", &run);
    for (int id = 0; id < fleet.config().n_gateways; ++id) {
      const auto& gw = fleet.Get(id);
      if (!gw.HasObservationEveryDay(0, days)) {
        fleet.Evict(id);
        continue;
      }
      const auto active = core::ActiveAggregate(gw);
      fleet.Evict(id);
      const int64_t end =
          std::min<int64_t>(active.EndMinute(), days * ts::kMinutesPerDay);
      for (int64_t m = active.start_minute(); m < end; ++m) {
        const size_t idx = static_cast<size_t>(m - active.start_minute());
        const auto completed = assembler.Ingest(id, m, active[idx]);
        if (!completed.ok()) continue;
        ++minutes_processed;
        for (const auto& window : completed.value()) {
          if (miner.AddWindow(id, window).ok()) ++windows_streamed;
        }
      }
      // Close the final day of this gateway.
      const auto closed =
          assembler.Ingest(id, end, ts::TimeSeries::Missing());
      if (closed.ok()) {
        for (const auto& window : *closed) {
          if (miner.AddWindow(id, window).ok()) ++windows_streamed;
        }
      }
    }
    for (auto& [id, window] : assembler.Flush()) {
      if (miner.AddWindow(id, window).ok()) ++windows_streamed;
    }
  }
  const auto elapsed =
      static_cast<int64_t>(run.Stages().front().seconds * 1000.0);

  const auto streamed = miner.CurrentMotifs();
  io::PrintSection(std::cout, "Streaming vs batch motif structure");
  io::TextTable table({"metric", "batch", "stream"});
  table.AddRow({"windows", bench::FmtInt(set.windows.size()),
                bench::FmtInt(windows_streamed)});
  table.AddRow({"motifs (support >= 2)",
                batch.ok() ? bench::FmtInt(batch->size()) : "n/a",
                bench::FmtInt(streamed.size())});
  table.AddRow(
      {"largest support",
       batch.ok() && !batch->empty() ? bench::FmtInt(batch->front().support())
                                     : "0",
       streamed.empty() ? "0" : bench::FmtInt(streamed.front().support())});
  table.Print(std::cout);

  io::PrintSection(std::cout, "Streaming throughput");
  std::cout << "  " << minutes_processed << " gateway-minutes in " << elapsed
            << " ms";
  if (elapsed > 0) {
    std::cout << " = "
              << bench::Fmt(static_cast<double>(minutes_processed) /
                                static_cast<double>(elapsed),
                            0)
              << "k observations/second";
  }
  std::cout << "\n  (the per-window assignment touches only candidate motifs "
               "within the retention horizon, so a production stream "
               "processor can run this per gateway shard)\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
