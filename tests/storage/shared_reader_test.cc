// One const HometsReader shared by threads: the reader keeps no mutable
// state (each request preads into a buffer of its own), so concurrent
// ReadGateway calls on every gateway must return exactly what a serial read
// returns. Labelled `threads`, so the ThreadSanitizer gate runs it too.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "simgen/fleet.h"
#include "storage/homets_format.h"
#include "ts/time_series.h"

namespace homets::storage {
namespace {

bool SameSeriesBits(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  return a.start_minute() == b.start_minute() &&
         a.step_minutes() == b.step_minutes() && a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(double)) == 0;
}

bool SameGateway(const simgen::GatewayTrace& a,
                 const simgen::GatewayTrace& b) {
  if (a.id != b.id || a.devices.size() != b.devices.size()) return false;
  for (size_t d = 0; d < a.devices.size(); ++d) {
    const simgen::DeviceTrace& x = a.devices[d];
    const simgen::DeviceTrace& y = b.devices[d];
    if (x.name != y.name || !SameSeriesBits(x.incoming, y.incoming) ||
        !SameSeriesBits(x.outgoing, y.outgoing)) {
      return false;
    }
  }
  return true;
}

TEST(SharedReaderTest, ConcurrentReadGatewayMatchesSerialRead) {
  simgen::SimConfig config;
  config.n_gateways = 4;
  config.weeks = 1;
  config.seed = 5;
  const std::string path = testing::TempDir() + "/shared_reader.homets";
  ASSERT_TRUE(WriteFleetHomets(simgen::FleetGenerator(config), path).ok());
  auto opened = HometsReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const HometsReader& reader = *opened;
  ASSERT_GT(reader.gateway_count(), 1u);

  std::vector<simgen::GatewayTrace> serial;
  for (size_t g = 0; g < reader.gateway_count(); ++g) {
    auto gw = reader.ReadGateway(g);
    ASSERT_TRUE(gw.ok()) << gw.status().ToString();
    serial.push_back(std::move(gw).value());
  }

  // Two threads read every gateway, in opposite orders, into traces of
  // their own (one by the returning form, one reusing its buffers).
  constexpr int kThreads = 2;
  std::vector<std::vector<simgen::GatewayTrace>> got(kThreads);
  std::vector<std::vector<bool>> ok(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t n = reader.gateway_count();
      got[t].resize(n);
      ok[t].assign(n, false);
      simgen::GatewayTrace reused;
      std::vector<simgen::DeviceTrace> spare;
      for (size_t i = 0; i < n; ++i) {
        const size_t g = t == 0 ? i : n - 1 - i;
        if (t == 0) {
          auto gw = reader.ReadGateway(g);
          ok[t][g] = gw.ok();
          if (gw.ok()) got[t][g] = std::move(gw).value();
        } else {
          ok[t][g] = reader.ReadGateway(g, &reused, &spare).ok();
          got[t][g] = reused;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t g = 0; g < serial.size(); ++g) {
      ASSERT_TRUE(ok[t][g]) << "thread " << t << " gateway " << g;
      EXPECT_TRUE(SameGateway(got[t][g], serial[g]))
          << "thread " << t << " gateway " << g;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace homets::storage
