// Property-style fidelity tests for the columnar store: whatever the CSV
// edge can produce — clean simgen fleets, skip-policy output with explicit
// Missing markers, duplicate and out-of-order rows — must survive
// CSV → homets → CSV without changing a byte. These are the tests behind the
// PR's "pipeline outputs are byte-identical across --input-format" claim.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/csv.h"
#include "simgen/fleet.h"
#include "simgen/types.h"
#include "storage/homets_format.h"
#include "ts/time_series.h"

namespace homets::storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Fixture(const std::string& name) {
  return std::string(HOMETS_IO_FIXTURES_DIR) + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSeriesIdentical(const ts::TimeSeries& got,
                           const ts::TimeSeries& want) {
  ASSERT_EQ(got.start_minute(), want.start_minute());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (ts::TimeSeries::IsMissing(want[i])) {
      EXPECT_TRUE(ts::TimeSeries::IsMissing(got[i])) << "bin " << i;
    } else {
      EXPECT_TRUE(SameBits(got[i], want[i])) << "bin " << i;
    }
  }
}

void ExpectGatewaysIdentical(const simgen::GatewayTrace& got,
                             const simgen::GatewayTrace& want) {
  ASSERT_EQ(got.devices.size(), want.devices.size());
  for (size_t d = 0; d < want.devices.size(); ++d) {
    EXPECT_EQ(got.devices[d].name, want.devices[d].name);
    EXPECT_EQ(got.devices[d].true_type, want.devices[d].true_type);
    EXPECT_EQ(got.devices[d].reported_type, want.devices[d].reported_type);
    ExpectSeriesIdentical(got.devices[d].incoming, want.devices[d].incoming);
    ExpectSeriesIdentical(got.devices[d].outgoing, want.devices[d].outgoing);
  }
}

/// The storage-level round trip: write `gateway` as homets, read it back,
/// and demand the result equal the normalized form bit for bit.
void ExpectHometsRoundTripExact(const simgen::GatewayTrace& gateway,
                                const std::string& tag) {
  const auto want = NormalizeToObservedSpan(gateway);
  const std::string path = TempPath(tag + ".homets");
  if (!want.ok()) {
    // A gateway the CSV reader would reject must be rejected here too.
    EXPECT_EQ(WriteGatewayHomets(path, gateway).code(),
              StatusCode::kInvalidArgument)
        << tag;
    return;
  }
  ASSERT_TRUE(WriteGatewayHomets(path, gateway).ok()) << tag;
  auto reader = HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << tag << ": " << reader.status().ToString();
  const auto got = reader->ReadGateway(0);
  ASSERT_TRUE(got.ok()) << tag << ": " << got.status().ToString();
  ExpectGatewaysIdentical(*got, *want);
  std::remove(path.c_str());
}

// Every gateway of a few small fleets (different seeds — different outage
// and label-noise draws) survives the columnar round trip bit-exactly.
TEST(RoundTripTest, SimgenFleetsRoundTripLosslessly) {
  for (const uint64_t seed : {1u, 9u, 20140317u}) {
    simgen::SimConfig config;
    config.n_gateways = 4;
    config.weeks = 2;
    config.seed = seed;
    config.surveyed_gateways = 2;
    const simgen::FleetGenerator fleet(config);
    for (int g = 0; g < config.n_gateways; ++g) {
      ExpectHometsRoundTripExact(
          fleet.Generate(g),
          "fleet_s" + std::to_string(seed) + "_g" + std::to_string(g));
    }
  }
}

// The full-fidelity chain: gateway → CSV → (read) → homets → (read) → CSV.
// The two CSV files must be byte-identical — the columnar hop is invisible.
TEST(RoundTripTest, CsvHometsCsvIsByteIdentical) {
  simgen::SimConfig config;
  config.n_gateways = 2;
  config.weeks = 2;
  config.seed = 5;
  config.surveyed_gateways = 1;
  const simgen::FleetGenerator fleet(config);
  for (int g = 0; g < config.n_gateways; ++g) {
    const std::string csv1 = TempPath("rt1_" + std::to_string(g) + ".csv");
    const std::string homets = TempPath("rt_" + std::to_string(g) + ".homets");
    const std::string csv2 = TempPath("rt2_" + std::to_string(g) + ".csv");
    ASSERT_TRUE(io::WriteGatewayCsv(csv1, fleet.Generate(g)).ok());

    const auto from_csv = io::ReadGatewayCsv(csv1);
    if (!from_csv.ok()) continue;  // all-missing gateway: header-only file
    ASSERT_TRUE(WriteGatewayHomets(homets, *from_csv).ok());
    auto reader = HometsReader::Open(homets);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    const auto from_homets = reader->ReadGateway(0);
    ASSERT_TRUE(from_homets.ok()) << from_homets.status().ToString();
    ASSERT_TRUE(io::WriteGatewayCsv(csv2, *from_homets).ok());

    EXPECT_EQ(FileBytes(csv1), FileBytes(csv2)) << "gateway " << g;
    std::remove(csv1.c_str());
    std::remove(homets.c_str());
    std::remove(csv2.c_str());
  }
}

// Resilient-ingestion output feeds straight into the columnar store: the
// skip policy's duplicate-row resolutions, quarantined rows and the Missing
// values of minute gaps round-trip unchanged through homets.
TEST(RoundTripTest, RepairedFixtureOutputRoundTrips) {
  io::ReadOptions options;
  options.policy = io::ErrorPolicy::kSkipAndReport;
  for (const char* fixture :
       {"gateway_dup.csv", "gateway_badtype.csv", "gapped.csv", "mess.csv"}) {
    const auto gw = io::ReadGatewayCsv(Fixture(fixture), options);
    ASSERT_TRUE(gw.ok()) << fixture << ": " << gw.status().ToString();
    ExpectHometsRoundTripExact(*gw, fixture);
  }
}

// Normalization is exactly the CSV write→read reshaping: both paths started
// from the same raw trace must agree on grid, order and values (CSV's %.3f
// cells parse back to the same doubles the normalizer kept).
TEST(RoundTripTest, NormalizeMatchesCsvWriteReadReshaping) {
  simgen::SimConfig config;
  config.n_gateways = 1;
  config.weeks = 1;
  config.seed = 3;
  config.surveyed_gateways = 1;
  const simgen::GatewayTrace raw = simgen::FleetGenerator(config).Generate(0);

  const std::string csv = TempPath("normalize.csv");
  ASSERT_TRUE(io::WriteGatewayCsv(csv, raw).ok());
  const auto via_csv = io::ReadGatewayCsv(csv);
  ASSERT_TRUE(via_csv.ok()) << via_csv.status().ToString();
  const auto normalized = NormalizeToObservedSpan(raw);
  ASSERT_TRUE(normalized.ok()) << normalized.status().ToString();

  ASSERT_EQ(via_csv->devices.size(), normalized->devices.size());
  for (size_t d = 0; d < normalized->devices.size(); ++d) {
    EXPECT_EQ(via_csv->devices[d].name, normalized->devices[d].name);
    const ts::TimeSeries& a = via_csv->devices[d].incoming;
    const ts::TimeSeries& b = normalized->devices[d].incoming;
    ASSERT_EQ(a.start_minute(), b.start_minute());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(ts::TimeSeries::IsMissing(a[i]), ts::TimeSeries::IsMissing(b[i]))
          << "device " << d << " bin " << i;
    }
  }
  std::remove(csv.c_str());
}

}  // namespace
}  // namespace homets::storage
