#include "core/dominance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "core/similarity.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "simgen/fleet.h"

namespace homets::core {
namespace {

// A device whose outgoing traffic is a tenth of `in`, from minute 0.
simgen::DeviceTrace MakeDevice(const std::string& name, std::vector<double> in,
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
}

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
  gw.devices.push_back(
      MakeDevice("heavy", heavy, simgen::DeviceType::kFixed));
  gw.devices.push_back(
      MakeDevice("light", light, simgen::DeviceType::kPortable));
  gw.devices.push_back(
      MakeDevice("idle", idle, simgen::DeviceType::kPortable));
  return gw;
}

// A heavy device and one that falls as it rises: the aggregate rises with
// the heavy device, so the second device's τ-b with it is −1. It is long
// enough for Kendall's count to prove τ-b ≤ −0.2 before it ends.
simgen::GatewayTrace AntiCorrelatedGateway(uint64_t seed,
                                           size_t minutes = 10000) {
  Rng rng(seed);
  std::vector<double> heavy(minutes), falling(minutes);
  for (size_t m = 0; m < minutes; ++m) {
    heavy[m] = std::floor(rng.Uniform(1e5, 1e6));
    falling[m] = 2000.0 - heavy[m] / 1000.0;
  }
  simgen::GatewayTrace gw;
  gw.devices.push_back(MakeDevice("heavy", heavy, simgen::DeviceType::kFixed));
  gw.devices.push_back(
      MakeDevice("falling", falling, simgen::DeviceType::kPortable));
  return gw;
}

// The seed-777 4-gateway x 2-week fleet of the pinned tests.
std::vector<simgen::GatewayTrace> PinnedFleet() {
  simgen::SimConfig config;
  config.n_gateways = 4;
  config.weeks = 2;
  config.seed = 777;
  simgen::FleetGenerator gen(config);
  std::vector<simgen::GatewayTrace> fleet;
  for (int id = 0; id < config.n_gateways; ++id) {
    fleet.push_back(gen.Generate(id));
  }
  return fleet;
}

uint64_t KendallBounded() {
  return obs::MetricsRegistry::Global()
      .GetCounter(obs::kDominanceKendallBounded)
      ->Value();
}

// Definition 4 from full Definition 1: each device's similarity from the
// vector form, which never cuts Kendall's count, kept above φ in descending
// order, equal similarities in device order.
std::vector<DominantDevice> FullDefinitionDominants(
    const simgen::GatewayTrace& gw, const DominanceOptions& options) {
  AggregateGrid grid;
  MakeAggregateGrid(gw.AggregateTraffic(), &grid);
  SimilarityOptions sim_options;
  sim_options.alpha = options.alpha;
  std::vector<DominantDevice> dominants;
  std::vector<double> values;
  for (size_t d = 0; d < gw.devices.size(); ++d) {
    DeviceOnGrid(gw.devices[d].TotalTraffic(), grid, &values);
    DominantDevice device;
    device.device_index = d;
    device.similarity =
        CorrelationSimilarity(values, grid.values, sim_options).value;
    device.reported_type = gw.devices[d].reported_type;
    if (device.similarity > options.phi) dominants.push_back(device);
  }
  std::stable_sort(dominants.begin(), dominants.end(),
                   [](const DominantDevice& a, const DominantDevice& b) {
                     return a.similarity > b.similarity;
                   });
  if (dominants.size() > options.max_devices) {
    dominants.resize(options.max_devices);
  }
  return dominants;
}

void ExpectSameDominants(const std::vector<DominantDevice>& got,
                         const std::vector<DominantDevice>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].device_index, want[i].device_index);
    EXPECT_EQ(std::memcmp(&got[i].similarity, &want[i].similarity,
                          sizeof(double)),
              0)
        << got[i].similarity << " vs " << want[i].similarity;
    EXPECT_EQ(got[i].reported_type, want[i].reported_type);
  }
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

TEST(DominanceTest, ThresholdDecisionMatchesFullDefinitionOne) {
  // Kendall's count may stop at φ; the dominant devices, their order and
  // their similarity bits must not move.
  std::vector<simgen::GatewayTrace> gateways = PinnedFleet();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    gateways.push_back(PlantedGateway(seed));
  }
  gateways.push_back(AntiCorrelatedGateway(4));
  for (const double phi : {0.0, 0.6, 0.8}) {
    for (const size_t max_devices :
         {size_t{3}, std::numeric_limits<size_t>::max()}) {
      DominanceOptions options;
      options.phi = phi;
      options.max_devices = max_devices;
      for (size_t g = 0; g < gateways.size(); ++g) {
        SCOPED_TRACE(testing::Message()
                     << "phi " << phi << ", gateway " << g << ", max "
                     << max_devices);
        ExpectSameDominants(FindDominantDevices(gateways[g], options),
                            FullDefinitionDominants(gateways[g], options));
      }
    }
  }
}

TEST(DominanceTest, KendallBoundedCountIsPinned) {
  // At φ = 0.6, 12 of the pinned fleet's 15 devices are decided below φ
  // before Kendall's count ends.
  const std::vector<simgen::GatewayTrace> fleet = PinnedFleet();
  DominanceOptions options;
  options.phi = 0.6;
  const uint64_t before = KendallBounded();
  for (const simgen::GatewayTrace& gw : fleet) {
    (void)FindDominantDevices(gw, options);
  }
  EXPECT_EQ(KendallBounded() - before, 12u);
}

TEST(DominanceTest, NegativePhiCutsNothing) {
  // Below 0, "no coefficient significant" (0) is above φ, so a cut count
  // could lift a device over it: nothing may be cut. The falling device's
  // τ-b is −1, at or below every such φ.
  std::vector<simgen::GatewayTrace> gateways = PinnedFleet();
  gateways.push_back(AntiCorrelatedGateway(5));
  for (const double phi :
       {-0.2, -0.9, -std::numeric_limits<double>::infinity()}) {
    DominanceOptions options;
    options.phi = phi;
    options.max_devices = std::numeric_limits<size_t>::max();
    const uint64_t before = KendallBounded();
    for (size_t g = 0; g < gateways.size(); ++g) {
      SCOPED_TRACE(testing::Message() << "phi " << phi << ", gateway " << g);
      ExpectSameDominants(FindDominantDevices(gateways[g], options),
                          FullDefinitionDominants(gateways[g], options));
    }
    EXPECT_EQ(KendallBounded(), before) << "phi " << phi;
  }
}

TEST(DominanceTest, EqualSimilaritiesKeepDeviceOrder) {
  // 20 devices, 14 of them copies of one heavy device: the copies tie on
  // similarity and must rank in device order, whatever the others score.
  const simgen::GatewayTrace planted = PlantedGateway(9);
  simgen::GatewayTrace gw;
  std::vector<size_t> copies;
  for (size_t d = 0; d < 20; ++d) {
    if (d % 3 == 2) {
      gw.devices.push_back(planted.devices[1 + (d / 3) % 2]);
    } else {
      copies.push_back(d);
      gw.devices.push_back(planted.devices[0]);
    }
  }
  DominanceOptions options;
  options.max_devices = std::numeric_limits<size_t>::max();
  const auto ranked = FindDominantDevices(gw, options);
  ASSERT_GE(ranked.size(), copies.size());
  for (size_t i = 0; i < copies.size(); ++i) {
    EXPECT_EQ(ranked[i].device_index, copies[i]);
    EXPECT_EQ(std::memcmp(&ranked[i].similarity, &ranked[0].similarity,
                          sizeof(double)),
              0);
  }
  ExpectSameDominants(ranked, FullDefinitionDominants(gw, options));
}

TEST(DominanceInWindowTest, ThresholdDecisionMatchesFullDefinitionOne) {
  // The window scan at φ against its own full ranking (φ = −∞ cuts
  // nothing), kept above φ.
  const std::vector<simgen::GatewayTrace> fleet = PinnedFleet();
  DominanceOptions all;
  all.phi = -std::numeric_limits<double>::infinity();
  all.max_devices = std::numeric_limits<size_t>::max();
  const int64_t day = ts::kMinutesPerDay;
  for (const double phi : {0.0, 0.6, 0.8}) {
    DominanceOptions options;
    options.phi = phi;
    for (size_t g = 0; g < fleet.size(); ++g) {
      for (const int64_t granularity : {int64_t{1}, int64_t{30}}) {
        SCOPED_TRACE(testing::Message() << "phi " << phi << ", gateway " << g
                                        << ", bins " << granularity);
        const auto ranked = FindDominantDevicesInWindow(
            fleet[g], 2 * day, 6 * day, granularity, 0, all);
        std::vector<DominantDevice> want;
        for (const DominantDevice& device : ranked) {
          if (device.similarity > phi && want.size() < options.max_devices) {
            want.push_back(device);
          }
        }
        ExpectSameDominants(FindDominantDevicesInWindow(
                                fleet[g], 2 * day, 6 * day, granularity, 0,
                                options),
                            want);
      }
    }
  }
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

// A window off the anchored bin grid is clipped inward to whole bins:
// [3 d, 4 d) at 60-minute bins anchored at 15 ranks exactly like
// [3 d + 15 min, 4 d - 45 min), bit for bit.
TEST(DominanceInWindowTest, OffGridWindowClipsToWholeBins) {
  simgen::SimConfig config;
  config.n_gateways = 4;
  config.weeks = 2;
  config.seed = 777;
  simgen::FleetGenerator gen(config);
  DominanceOptions options;
  options.phi = -std::numeric_limits<double>::infinity();
  options.max_devices = std::numeric_limits<size_t>::max();
  const int64_t day = ts::kMinutesPerDay;
  for (int id = 0; id < config.n_gateways; ++id) {
    SCOPED_TRACE(id);
    const auto gw = gen.Generate(id);
    const auto off_grid =
        FindDominantDevicesInWindow(gw, 3 * day, 4 * day, 60, 15, options);
    const auto on_grid = FindDominantDevicesInWindow(
        gw, 3 * day + 15, 4 * day - 45, 60, 15, options);
    ASSERT_FALSE(off_grid.empty());
    ASSERT_EQ(off_grid.size(), on_grid.size());
    for (size_t i = 0; i < off_grid.size(); ++i) {
      EXPECT_EQ(off_grid[i].device_index, on_grid[i].device_index);
      EXPECT_EQ(std::memcmp(&off_grid[i].similarity, &on_grid[i].similarity,
                            sizeof(double)),
                0);
    }
  }
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
