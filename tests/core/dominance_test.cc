#include "core/dominance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "simgen/fleet.h"

namespace homets::core {
namespace {

// Builds a gateway with one heavy driver device, one light follower and one
// idle device.
simgen::GatewayTrace PlantedGateway(uint64_t seed, size_t minutes = 4000) {
  Rng rng(seed);
  simgen::GatewayTrace gw;
  std::vector<double> heavy(minutes), light(minutes), idle(minutes);
  for (size_t m = 0; m < minutes; ++m) {
    const bool evening = (m / 60) % 24 >= 18;
    heavy[m] = evening && rng.Bernoulli(0.5) ? rng.LogNormal(std::log(8e5), 0.5)
                                             : rng.LogNormal(std::log(200), 0.5);
    light[m] = rng.LogNormal(std::log(300), 0.6);
    idle[m] = rng.LogNormal(std::log(50), 0.3);
  }
  auto make_dev = [&](const std::string& name, std::vector<double> in,
                      simgen::DeviceType type) {
    simgen::DeviceTrace dev;
    dev.name = name;
    dev.true_type = type;
    dev.reported_type = type;
    std::vector<double> out(in.size());
    for (size_t i = 0; i < in.size(); ++i) out[i] = 0.1 * in[i];
    dev.incoming = ts::TimeSeries(0, 1, std::move(in));
    dev.outgoing = ts::TimeSeries(0, 1, std::move(out));
    return dev;
  };
  gw.devices.push_back(
      make_dev("heavy", heavy, simgen::DeviceType::kFixed));
  gw.devices.push_back(
      make_dev("light", light, simgen::DeviceType::kPortable));
  gw.devices.push_back(
      make_dev("idle", idle, simgen::DeviceType::kPortable));
  return gw;
}

TEST(DominanceTest, HeavyDeviceDominates) {
  const auto gw = PlantedGateway(1);
  const auto dominants = FindDominantDevices(gw);
  ASSERT_GE(dominants.size(), 1u);
  EXPECT_EQ(dominants[0].device_index, 0u);
  EXPECT_GT(dominants[0].similarity, 0.6);
  EXPECT_EQ(dominants[0].reported_type, simgen::DeviceType::kFixed);
}

TEST(DominanceTest, RankedDescendingBySimilarity) {
  const auto gw = PlantedGateway(2);
  const auto dominants = FindDominantDevices(gw);
  for (size_t i = 1; i < dominants.size(); ++i) {
    EXPECT_GE(dominants[i - 1].similarity, dominants[i].similarity);
  }
}

TEST(DominanceTest, StricterPhiFindsFewer) {
  const auto gw = PlantedGateway(3);
  DominanceOptions loose;
  loose.phi = 0.6;
  DominanceOptions strict;
  strict.phi = 0.8;
  EXPECT_GE(FindDominantDevices(gw, loose).size(),
            FindDominantDevices(gw, strict).size());
}

TEST(DominanceTest, MaxDevicesCapRespected) {
  auto gw = PlantedGateway(4);
  DominanceOptions options;
  options.phi = -1.0;  // admit everything
  options.max_devices = 2;
  EXPECT_EQ(FindDominantDevices(gw, options).size(), 2u);
}

TEST(DominanceTest, PinnedFleetSimilaritiesAndRanking) {
  // Every device of a seeded 4-gateway x 2-week fleet, ranked by its
  // Definition 1 similarity to the aggregate (week-scale n, zero-heavy
  // device grids): pinned ranking and exact similarity bits.
  struct Pin {
    int gateway;
    size_t device;
    double similarity;
  };
  const std::vector<Pin> pins = {
      {0, 0, 0x1.eb294905ae6d9p-1},
      {0, 2, 0x1.954254f79ac4fp-1},
      {0, 1, 0x1.5bc86b98e4a03p-2},
      {1, 2, 0x1.c09e160a0bf96p-1},
      {1, 0, 0x1.93a49ef35c8ep-1},
      {1, 4, 0x1.be3e9bbd0c0efp-3},
      {1, 3, 0x1.352d117e2ac49p-3},
      {1, 1, 0x1.3190bf70d8702p-3},
      {2, 0, 0x1.53b6e448867ffp-1},
      {2, 4, 0x1.2965bf8735089p-1},
      {2, 1, 0x1.228c9fdf5d157p-1},
      {2, 2, 0x1.979b4dfacea56p-2},
      {2, 3, 0x1.6b52d5d131274p-2},
      {3, 0, 0x1.8c9ece9e72f7fp-1},
      {3, 1, 0x1.6a6653fa234ecp-1},
  };
  simgen::SimConfig config;
  config.n_gateways = 4;
  config.weeks = 2;
  config.seed = 777;
  simgen::FleetGenerator gen(config);
  DominanceOptions options;
  options.phi = -std::numeric_limits<double>::infinity();
  options.max_devices = std::numeric_limits<size_t>::max();
  size_t next = 0;
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto gw = gen.Generate(id);
    const auto ranked = FindDominantDevices(gw, options);
    ASSERT_EQ(ranked.size(), gw.devices.size());
    for (const DominantDevice& device : ranked) {
      ASSERT_LT(next, pins.size());
      const Pin& pin = pins[next++];
      SCOPED_TRACE(next);
      ASSERT_EQ(pin.gateway, id);
      EXPECT_EQ(device.device_index, pin.device);
      EXPECT_EQ(std::memcmp(&device.similarity, &pin.similarity,
                            sizeof(double)),
                0)
          << device.similarity << " vs " << pin.similarity;
    }
  }
  EXPECT_EQ(next, pins.size());
}

TEST(DominanceTest, EmptyGatewayHasNoDominants) {
  simgen::GatewayTrace gw;
  EXPECT_TRUE(FindDominantDevices(gw).empty());
}

TEST(DominanceInWindowTest, PinnedFleetSimilaritiesAndRanking) {
  // Every device of a seeded 4-gateway x 2-week fleet, ranked in two windows
  // (day 3 at hourly bins; days 9.25-11 at 30-minute bins): pinned ranking
  // and exact similarity bits. Gateway 1's device 3 stops after two days, so
  // neither window reaches it and it is not ranked.
  struct Pin {
    int window;
    int gateway;
    size_t device;
    double similarity;
  };
  const std::vector<Pin> pins = {
      {0, 0, 0, 0x1.f6128f4b9005ap-1},
      {0, 0, 1, 0x1.2883c8cb04e5cp-1},
      {0, 0, 2, 0x1.d70a3d70a3d71p-2},
      {1, 0, 0, 0x1.f029e5751b696p-1},
      {1, 0, 2, 0x1.be9687532f98fp-1},
      {1, 0, 1, 0x1.3fdffbcbf49a2p-2},
      {0, 1, 1, 0x1.cd7b9b1f9a38dp-1},
      {0, 1, 2, 0x1.7ae147ae147aep-1},
      {0, 1, 0, 0x1.4b1b36102299p-1},
      {0, 1, 4, 0x0p+0},
      {1, 1, 2, 0x1.ffd59e68b840ep-1},
      {1, 1, 0, 0x0p+0},
      {1, 1, 1, 0x0p+0},
      {1, 1, 4, 0x0p+0},
      {0, 2, 1, 0x1.d981a2832117cp-1},
      {0, 2, 0, 0x1.c022ae06a75fap-1},
      {0, 2, 2, 0x0p+0},
      {0, 2, 3, 0x0p+0},
      {0, 2, 4, 0x0p+0},
      {1, 2, 0, 0x0p+0},
      {1, 2, 1, 0x0p+0},
      {1, 2, 2, 0x0p+0},
      {1, 2, 3, 0x0p+0},
      {1, 2, 4, 0x0p+0},
      {0, 3, 0, 0x1.fffc57a470548p-1},
      {0, 3, 1, 0x1.a36510791960ap-1},
      {1, 3, 0, 0x1.b5821c200e05cp-1},
      {1, 3, 1, 0x1.7002767cb0e46p-1},
  };
  struct Window {
    int64_t begin, end, granularity;
  };
  const Window windows[] = {
      {3 * ts::kMinutesPerDay, 4 * ts::kMinutesPerDay, 60},
      {9 * ts::kMinutesPerDay + 360, 11 * ts::kMinutesPerDay, 30}};
  simgen::SimConfig config;
  config.n_gateways = 4;
  config.weeks = 2;
  config.seed = 777;
  simgen::FleetGenerator gen(config);
  DominanceOptions options;
  options.phi = -std::numeric_limits<double>::infinity();
  options.max_devices = std::numeric_limits<size_t>::max();
  size_t next = 0;
  for (int id = 0; id < config.n_gateways; ++id) {
    auto gw = gen.Generate(id);
    if (id == 1) {
      auto& dev = gw.devices[3];
      dev.incoming = dev.incoming.Slice(0, 2 * ts::kMinutesPerDay).value();
      dev.outgoing = dev.outgoing.Slice(0, 2 * ts::kMinutesPerDay).value();
    }
    for (int w = 0; w < 2; ++w) {
      const auto ranked = FindDominantDevicesInWindow(
          gw, windows[w].begin, windows[w].end, windows[w].granularity, 0,
          options);
      for (const DominantDevice& device : ranked) {
        ASSERT_LT(next, pins.size());
        const Pin& pin = pins[next++];
        SCOPED_TRACE(next);
        ASSERT_EQ(pin.window, w);
        ASSERT_EQ(pin.gateway, id);
        EXPECT_EQ(device.device_index, pin.device);
        EXPECT_EQ(std::memcmp(&device.similarity, &pin.similarity,
                              sizeof(double)),
                  0)
            << device.similarity << " vs " << pin.similarity;
      }
    }
  }
  EXPECT_EQ(next, pins.size());
}

TEST(DominanceInWindowTest, WindowRestrictedDominance) {
  const auto gw = PlantedGateway(5, 4320);  // 3 days
  // Dominance over the second day at hourly bins.
  const auto dominants = FindDominantDevicesInWindow(
      gw, ts::kMinutesPerDay, 2 * ts::kMinutesPerDay, 60, 0);
  ASSERT_GE(dominants.size(), 1u);
  EXPECT_EQ(dominants[0].device_index, 0u);
}

TEST(DominanceInWindowTest, EmptyWindowYieldsNothing) {
  const auto gw = PlantedGateway(6, 1440);
  const auto dominants = FindDominantDevicesInWindow(
      gw, 10 * ts::kMinutesPerDay, 11 * ts::kMinutesPerDay, 60, 0);
  EXPECT_TRUE(dominants.empty());
}

TEST(RankingTest, VolumeRankingPutsHeaviestFirst) {
  const auto gw = PlantedGateway(7);
  const auto order = RankDevicesByVolume(gw);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0u);  // heavy device produces the most bytes
}

TEST(RankingTest, EuclideanRankingFindsClosestToAggregate) {
  const auto gw = PlantedGateway(8);
  const auto order = RankDevicesByEuclidean(gw);
  ASSERT_EQ(order.size(), 3u);
  // The heavy device constitutes most of the aggregate, so it is closest.
  EXPECT_EQ(order[0], 0u);
}

TEST(RankingTest, AgreementCountsPositionalMatches) {
  std::vector<DominantDevice> dominants(2);
  dominants[0].device_index = 4;
  dominants[1].device_index = 2;
  EXPECT_EQ(CountRankAgreement(dominants, {4, 2, 0}), 2u);
  EXPECT_EQ(CountRankAgreement(dominants, {2, 4, 0}), 0u);
  EXPECT_EQ(CountRankAgreement(dominants, {4, 0, 2}), 1u);
  EXPECT_EQ(CountRankAgreement({}, {1, 2}), 0u);
}

TEST(DominanceTest, DisconnectedMinutesCountAsZeroTraffic) {
  // The paper compares every device on the gateway's full observation grid:
  // a portable that only connects during the busy hours must not get credit
  // for the quiet hours it never reported. Build a gateway where a
  // fair-weather device matches the aggregate perfectly *while connected*
  // but is absent during the quiet half of the day.
  const size_t minutes = 4000;
  Rng rng(21);
  std::vector<double> driver(minutes), fair_weather(
                                           minutes, ts::TimeSeries::Missing());
  for (size_t m = 0; m < minutes; ++m) {
    const bool busy = (m / 60) % 24 >= 12;
    driver[m] = busy ? rng.LogNormal(std::log(5e5), 0.3)
                     : rng.LogNormal(std::log(200), 0.3);
    if (busy) {
      // Tracks the driver tightly, but only exists when connected.
      fair_weather[m] = 0.5 * driver[m];
    }
  }
  simgen::GatewayTrace gw;
  auto make_dev = [&](const std::string& name, std::vector<double> in) {
    simgen::DeviceTrace dev;
    dev.name = name;
    dev.incoming = ts::TimeSeries(0, 1, std::move(in));
    dev.outgoing = ts::TimeSeries(0, 1, std::vector<double>(minutes, 0.0));
    return dev;
  };
  gw.devices.push_back(make_dev("driver", driver));
  gw.devices.push_back(make_dev("fair_weather", fair_weather));

  const auto dominants = FindDominantDevices(gw);
  ASSERT_FALSE(dominants.empty());
  // The always-on driver must outrank the fair-weather device: on the full
  // grid the fair-weather zeros *do* coincide with the aggregate's quiet
  // half, but its during-connection contribution is half the driver's.
  EXPECT_EQ(dominants[0].device_index, 0u);
}

TEST(RankingTest, EuclideanUsesSameGridAsDominance) {
  // A device missing for most of the trace must not look artificially close
  // to the aggregate just because its few observed minutes match: missing
  // minutes are zero traffic on the comparison grid, so the distance to the
  // aggregate stays large.
  const size_t minutes = 2000;
  Rng rng(22);
  std::vector<double> steady(minutes);
  std::vector<double> brief(minutes, ts::TimeSeries::Missing());
  for (size_t m = 0; m < minutes; ++m) {
    steady[m] = rng.LogNormal(std::log(1e5), 0.3);
  }
  for (size_t m = 0; m < 20; ++m) brief[m] = steady[m];  // perfect, briefly
  simgen::GatewayTrace gw;
  auto make_dev = [&](const std::string& name, std::vector<double> in) {
    simgen::DeviceTrace dev;
    dev.name = name;
    dev.incoming = ts::TimeSeries(0, 1, std::move(in));
    dev.outgoing = ts::TimeSeries(0, 1, std::vector<double>(minutes, 0.0));
    return dev;
  };
  gw.devices.push_back(make_dev("steady", steady));
  gw.devices.push_back(make_dev("brief", brief));
  const auto order = RankDevicesByEuclidean(gw);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);
}

TEST(RankingTest, CorrelationDominanceCanDisagreeWithVolume) {
  // A device that follows the aggregate's *shape* with low volume: the
  // paper's Section 6.2 case where correlation finds what volume misses.
  Rng rng(9);
  const size_t minutes = 4000;
  std::vector<double> driver(minutes), shadow(minutes), blob(minutes);
  for (size_t m = 0; m < minutes; ++m) {
    const bool evening = (m / 60) % 24 >= 18;
    driver[m] = evening ? rng.LogNormal(std::log(6e5), 0.4) : 0.0;
    shadow[m] = 0.01 * driver[m] + rng.LogNormal(std::log(20), 0.3);
    blob[m] = rng.LogNormal(std::log(4e5), 0.2);  // huge flat volume
  }
  simgen::GatewayTrace gw;
  auto make_dev = [&](const std::string& name, std::vector<double> in) {
    simgen::DeviceTrace dev;
    dev.name = name;
    dev.incoming = ts::TimeSeries(0, 1, std::move(in));
    dev.outgoing = ts::TimeSeries(0, 1, std::vector<double>(minutes, 0.0));
    return dev;
  };
  gw.devices.push_back(make_dev("driver", driver));
  gw.devices.push_back(make_dev("shadow", shadow));
  gw.devices.push_back(make_dev("blob", blob));

  const auto dominants = FindDominantDevices(gw);
  const auto by_volume = RankDevicesByVolume(gw);
  // Shadow correlates with the aggregate far better than its volume rank.
  bool shadow_dominant = false;
  for (const auto& d : dominants) {
    if (d.device_index == 1) shadow_dominant = true;
  }
  EXPECT_TRUE(shadow_dominant);
  EXPECT_NE(by_volume[1], 1u);  // volume ranking puts shadow last or middle
}

}  // namespace
}  // namespace homets::core
