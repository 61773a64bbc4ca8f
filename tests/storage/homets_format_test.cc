// Unit tests for the homets columnar format (DESIGN.md §11): writer/reader
// round trips stay bit-exact across both chunk encodings, the footer index
// serves time-range slices without decoding unrelated chunks (asserted via
// the homets.storage.chunks_read/chunks_skipped counters), and every
// corruption mode — bad magic, torn trailer, flipped payload byte — surfaces
// as a clean Status, never a crash.
#include "storage/homets_format.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "simgen/fleet.h"
#include "simgen/types.h"
#include "ts/time_series.h"

namespace homets::storage {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

uint64_t CounterValue(std::string_view name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Two series must agree on grid and on every bit, Missing included.
void ExpectSeriesIdentical(const ts::TimeSeries& got,
                           const ts::TimeSeries& want) {
  ASSERT_EQ(got.start_minute(), want.start_minute());
  ASSERT_EQ(got.step_minutes(), want.step_minutes());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (ts::TimeSeries::IsMissing(want[i])) {
      EXPECT_TRUE(ts::TimeSeries::IsMissing(got[i])) << "bin " << i;
    } else {
      EXPECT_TRUE(SameBits(got[i], want[i]))
          << "bin " << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

/// A small hand-built gateway: two devices, staggered spans, Missing holes.
simgen::GatewayTrace HandBuiltGateway() {
  const double miss = ts::TimeSeries::Missing();
  simgen::GatewayTrace gw;
  gw.id = 42;
  gw.surveyed_residents = 3;
  gw.regular_home = true;
  simgen::DeviceTrace laptop;
  laptop.name = "gw042-laptop";
  laptop.true_type = simgen::DeviceType::kPortable;
  laptop.reported_type = simgen::DeviceType::kUnlabeled;
  laptop.incoming = ts::TimeSeries(10, 1, {1.5, miss, 3.25, 0.0, 512.125});
  laptop.outgoing = ts::TimeSeries(10, 1, {0.5, miss, 1.0, miss, 64.0});
  simgen::DeviceTrace console;
  console.name = "gw042-console";
  console.true_type = simgen::DeviceType::kGameConsole;
  console.reported_type = simgen::DeviceType::kGameConsole;
  console.incoming = ts::TimeSeries(13, 1, {9.75, 10.5});
  console.outgoing = ts::TimeSeries(13, 1, {miss, 2.25});
  gw.devices = {laptop, console};
  return gw;
}

TEST(HometsFormatTest, WriterRoundTripsHandBuiltGateway) {
  const std::string path = TempPath("roundtrip.homets");
  const simgen::GatewayTrace original = HandBuiltGateway();
  ASSERT_TRUE(WriteGatewayHomets(path, original).ok());

  auto reader = HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->gateway_count(), 1u);

  // The columnar format keeps the simulator metadata CSV drops.
  const GatewayMeta& meta = reader->gateway_meta(0);
  EXPECT_EQ(meta.id, 42);
  ASSERT_TRUE(meta.surveyed_residents.has_value());
  EXPECT_EQ(*meta.surveyed_residents, 3);
  EXPECT_TRUE(meta.regular_home);

  const auto want = NormalizeToObservedSpan(original);
  ASSERT_TRUE(want.ok());
  const auto got = reader->ReadGateway(0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->devices.size(), want->devices.size());
  for (size_t d = 0; d < want->devices.size(); ++d) {
    EXPECT_EQ(got->devices[d].name, want->devices[d].name);
    EXPECT_EQ(got->devices[d].true_type, want->devices[d].true_type);
    EXPECT_EQ(got->devices[d].reported_type, want->devices[d].reported_type);
    ExpectSeriesIdentical(got->devices[d].incoming, want->devices[d].incoming);
    ExpectSeriesIdentical(got->devices[d].outgoing, want->devices[d].outgoing);
  }
  // Devices come back name-sorted — the CSV round-trip order.
  EXPECT_EQ(got->devices[0].name, "gw042-console");
  EXPECT_EQ(got->devices[1].name, "gw042-laptop");
  std::remove(path.c_str());
}

// Values that %.3f can represent take the delta+varint milli-unit encoding;
// anything else (pi, thirds) must fall back to raw IEEE bits. Either way the
// decode is bit-identical — the encoding choice is invisible to readers.
TEST(HometsFormatTest, MixedEncodingsStayBitExact) {
  const double miss = ts::TimeSeries::Missing();
  simgen::GatewayTrace gw;
  simgen::DeviceTrace dev;
  dev.name = "dev";
  dev.incoming =
      ts::TimeSeries(0, 1, {0.001, 123456.789, miss, 0.0, 99999.999});
  dev.outgoing = ts::TimeSeries(
      0, 1, {M_PI, 1.0 / 3.0, miss, 2.0 / 3.0, 1e-12});
  gw.devices = {dev};

  const std::string path = TempPath("encodings.homets");
  ASSERT_TRUE(WriteGatewayHomets(path, gw).ok());
  auto reader = HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto got = reader->ReadGateway(0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->devices.size(), 1u);
  ExpectSeriesIdentical(got->devices[0].incoming, dev.incoming);
  ExpectSeriesIdentical(got->devices[0].outgoing, dev.outgoing);
  std::remove(path.c_str());
}

TEST(HometsFormatTest, AllMissingGatewayRejectedLikeCsv) {
  simgen::GatewayTrace gw;
  simgen::DeviceTrace dev;
  dev.name = "ghost";
  const double miss = ts::TimeSeries::Missing();
  dev.incoming = ts::TimeSeries(0, 1, {miss, miss});
  dev.outgoing = ts::TimeSeries(0, 1, {miss, miss});
  gw.devices = {dev};
  EXPECT_EQ(NormalizeToObservedSpan(gw).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteGatewayHomets(TempPath("empty.homets"), gw).code(),
            StatusCode::kInvalidArgument);
}

TEST(HometsFormatTest, AppendAfterFinishFails) {
  const std::string path = TempPath("finished.homets");
  auto writer = HometsWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append(HandBuiltGateway()).ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->Append(HandBuiltGateway()).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// The out-of-core fleet path: every generated gateway either lands in the
// file or is counted as skipped (no observed minute at all — the same set
// the CSV exporter turns into header-only files the reader rejects).
TEST(HometsFormatTest, FleetWriterAccountsForEveryGateway) {
  simgen::SimConfig config;
  config.n_gateways = 3;
  config.weeks = 2;
  config.seed = 7;
  config.surveyed_gateways = 1;
  const simgen::FleetGenerator fleet(config);

  const std::string path = TempPath("fleet.homets");
  const auto stats = WriteFleetHomets(fleet, path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->gateways + stats->gateways_skipped, 3u);
  EXPECT_GT(stats->gateways, 0u);
  EXPECT_GT(stats->chunks, 0u);

  auto reader = HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->gateway_count(), stats->gateways);
  EXPECT_EQ(reader->chunk_count(), stats->chunks);
  EXPECT_TRUE(reader->mmap_backed());
  for (size_t g = 0; g < reader->gateway_count(); ++g) {
    const auto gw = reader->ReadGateway(g);
    ASSERT_TRUE(gw.ok()) << gw.status().ToString();
    EXPECT_FALSE(gw->devices.empty());
  }
  std::remove(path.c_str());
}

// The acceptance-criterion test: a (device, time-range) slice decodes only
// the chunks it overlaps. A 3-chunk series read in the middle must bump
// chunks_read by exactly 1 and account for the other 2 as skipped.
TEST(HometsFormatTest, ReadSeriesDecodesOnlyOverlappingChunks) {
  const size_t n = 2 * kChunkValues + 100;  // 3 chunks per direction
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = 0.25 * static_cast<double>(i);
  simgen::GatewayTrace gw;
  simgen::DeviceTrace dev;
  dev.name = "big";
  dev.incoming = ts::TimeSeries(0, 1, values);
  dev.outgoing = ts::TimeSeries(0, 1, values);
  gw.devices = {dev};

  const std::string path = TempPath("chunked.homets");
  ASSERT_TRUE(WriteGatewayHomets(path, gw).ok());
  auto reader = HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->chunk_count(), 6u);

  // A 50-minute window inside the second chunk of the incoming column.
  const int64_t begin = static_cast<int64_t>(kChunkValues) + 200;
  const uint64_t read_before = CounterValue(obs::kStorageChunksRead);
  const uint64_t skipped_before = CounterValue(obs::kStorageChunksSkipped);
  const auto slice = reader->ReadSeries(0, 0, 0, begin, begin + 50);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  EXPECT_EQ(CounterValue(obs::kStorageChunksRead) - read_before, 1u);
  // skipped counts the requested series' chunks: 3 incoming, 1 decoded.
  EXPECT_EQ(CounterValue(obs::kStorageChunksSkipped) - skipped_before, 2u);
  ASSERT_EQ(slice->size(), 50u);
  EXPECT_EQ(slice->start_minute(), begin);
  for (size_t i = 0; i < slice->size(); ++i) {
    EXPECT_TRUE(SameBits((*slice)[i], values[begin + static_cast<int64_t>(i)]))
        << "minute " << begin + static_cast<int64_t>(i);
  }

  // A window past the coverage is empty — not an error — and decodes nothing.
  const uint64_t read_mid = CounterValue(obs::kStorageChunksRead);
  const auto beyond = reader->ReadSeries(0, 0, 0, 10'000'000, 10'000'050);
  ASSERT_TRUE(beyond.ok()) << beyond.status().ToString();
  EXPECT_EQ(beyond->size(), 0u);
  EXPECT_EQ(CounterValue(obs::kStorageChunksRead), read_mid);

  // Degenerate and unknown requests are clean Statuses.
  EXPECT_EQ(reader->ReadSeries(0, 0, 0, 100, 100).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reader->ReadSeries(0, 9, 0, 0, 100).status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(HometsFormatTest, ReadSeriesFullRangeMatchesReadGateway) {
  simgen::SimConfig config;
  config.n_gateways = 1;
  config.weeks = 1;
  config.seed = 11;
  config.surveyed_gateways = 1;
  const simgen::GatewayTrace gw = simgen::FleetGenerator(config).Generate(0);

  const std::string path = TempPath("fullrange.homets");
  ASSERT_TRUE(WriteGatewayHomets(path, gw).ok());
  auto reader = HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto full = reader->ReadGateway(0);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (size_t d = 0; d < full->devices.size(); ++d) {
    const ts::TimeSeries& want = full->devices[d].incoming;
    const auto got = reader->ReadSeries(0, d, 0, want.start_minute(),
                                        want.EndMinute());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSeriesIdentical(*got, want);
  }
  std::remove(path.c_str());
}

class HometsCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt_me.homets");
    ASSERT_TRUE(WriteGatewayHomets(path_, HandBuiltGateway()).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadAll() {
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
  }
  void WriteAll(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

TEST_F(HometsCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bytes = ReadAll();
  bytes[0] ^= 0x01;
  WriteAll(bytes);
  const auto reader = HometsReader::Open(path_);
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
}

TEST_F(HometsCorruptionTest, TornTrailerIsIoError) {
  std::string bytes = ReadAll();
  bytes.resize(bytes.size() - 8);  // rips through the 16-byte trailer
  WriteAll(bytes);
  const auto reader = HometsReader::Open(path_);
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  EXPECT_NE(reader.status().message().find("torn"), std::string::npos);
}

TEST_F(HometsCorruptionTest, FlippedPayloadByteFailsCrcOnRead) {
  std::string bytes = ReadAll();
  bytes[8] ^= 0xFF;  // first chunk payload starts right after the magic
  WriteAll(bytes);
  // The footer is intact, so Open succeeds; the damage surfaces on decode.
  auto reader = HometsReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const uint64_t failures_before = CounterValue(obs::kStorageCrcFailures);
  const auto gw = reader->ReadGateway(0);
  EXPECT_EQ(gw.status().code(), StatusCode::kIoError);
  EXPECT_NE(gw.status().message().find("crc mismatch"), std::string::npos);
  EXPECT_GT(CounterValue(obs::kStorageCrcFailures), failures_before);
}

}  // namespace
}  // namespace homets::storage
