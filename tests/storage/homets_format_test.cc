// Unit tests for the homets columnar format (DESIGN.md §11): writer/reader
// round trips stay bit-exact across both chunk encodings, the footer index
// serves time-range slices without decoding unrelated chunks (asserted via
// the homets.storage.chunks_read/chunks_skipped counters), and every
// corruption mode — bad magic, torn trailer, flipped payload byte, a file
// truncated under an open reader — surfaces as a clean Status, never a
// crash. Hand-assembled files cover the chunk payloads the writer never
// emits, and a multi-chunk series must decode bit for bit equal to the CSV
// read of the same gateway.
#include "storage/homets_format.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/csv.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "simgen/fleet.h"
#include "simgen/types.h"
#include "storage/wire.h"
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

// A file that shrinks under an open reader: Open read only the footer, so
// each later request preads chunk bytes that are no longer there. That is
// a short read, an IoError — never a signal that kills the process.
TEST(HometsFormatTest, FileTruncatedAfterOpenIsIoError) {
  simgen::SimConfig config;
  config.n_gateways = 1;
  config.weeks = 1;
  config.seed = 11;
  const std::string path = TempPath("shrinks.homets");
  ASSERT_TRUE(
      WriteGatewayHomets(path, simgen::FleetGenerator(config).Generate(0))
          .ok());
  auto reader = HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto before = reader->ReadGateway(0);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const ts::TimeSeries& last = before->devices.back().outgoing;

  ASSERT_EQ(truncate(path.c_str(), 4096), 0);
  const auto gw = reader->ReadGateway(0);
  EXPECT_EQ(gw.status().code(), StatusCode::kIoError);
  EXPECT_NE(gw.status().message().find("short read"), std::string::npos)
      << gw.status().ToString();
  const auto series =
      reader->ReadSeries(0, before->devices.size() - 1, 1,
                         last.start_minute(), last.EndMinute());
  EXPECT_EQ(series.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// --- chunk decoding on hostile and edge payloads --------------------------
// Payloads the writer never emits: bitmap padding bits set, all-missing and
// all-present bitmap bytes, raw IEEE chunks, a stream that ends early and a
// chunk run with a hole. The files are assembled byte by byte, with valid
// CRCs, so each case reaches the payload decoder.

const double kMiss = ts::TimeSeries::Missing();

struct RawChunk {
  uint8_t direction = 0;
  int64_t start_minute = 0;
  uint32_t value_count = 0;
  std::string payload;
};

/// kFixedE3 payload: encoding byte, the given bitmap bytes, then each
/// milli-unit delta as a zigzag varint.
std::string E3Payload(const std::vector<uint8_t>& bitmap,
                      const std::vector<int64_t>& deltas) {
  std::string payload(1, static_cast<char>(ChunkEncoding::kFixedE3));
  payload.append(bitmap.begin(), bitmap.end());
  for (const int64_t d : deltas) PutZigzag(&payload, d);
  return payload;
}

/// kRaw64 payload: encoding byte, the bitmap bytes, then raw IEEE bits.
std::string Raw64Payload(const std::vector<uint8_t>& bitmap,
                         const std::vector<double>& values) {
  std::string payload(1, static_cast<char>(ChunkEncoding::kRaw64));
  payload.append(bitmap.begin(), bitmap.end());
  for (const double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(&payload, bits);
  }
  return payload;
}

/// Writes a one-gateway, one-device .homets file holding `chunks` in the
/// documented layout: magic, payloads, footer, trailer. Every CRC is valid.
std::string WriteRawHomets(const std::string& name,
                           const std::vector<RawChunk>& chunks) {
  std::string file = "HOMETSC1";
  std::string index;
  PutVarint(&index, chunks.size());
  for (const RawChunk& chunk : chunks) {
    PutVarint(&index, 0);  // gateway
    PutVarint(&index, 0);  // device
    index.push_back(static_cast<char>(chunk.direction));
    PutZigzag(&index, chunk.start_minute);
    PutVarint(&index, chunk.value_count);
    PutVarint(&index, file.size());
    PutVarint(&index, chunk.payload.size());
    PutU32(&index, Crc32(reinterpret_cast<const uint8_t*>(
                             chunk.payload.data()),
                         chunk.payload.size()));
    file += chunk.payload;
  }
  std::string footer;
  PutVarint(&footer, 1);   // footer version
  PutVarint(&footer, 1);   // gateways
  PutZigzag(&footer, 7);   // gateway id
  footer.push_back('\0');  // no survey
  footer.push_back('\0');  // not a regular home
  PutVarint(&footer, 1);   // devices
  PutVarint(&footer, 3);
  footer += "dev";
  footer.push_back(static_cast<char>(simgen::DeviceType::kPortable));
  footer.push_back(static_cast<char>(simgen::DeviceType::kPortable));
  footer += index;
  const uint64_t footer_offset = file.size();
  file += footer;
  PutU64(&file, footer_offset);
  PutU32(&file, Crc32(reinterpret_cast<const uint8_t*>(footer.data()),
                      footer.size()));
  file += "HTSF";
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  return path;
}

/// An outgoing column for files whose test is about the incoming one.
RawChunk PlainOutgoing(int64_t start_minute, uint32_t value_count) {
  std::vector<uint8_t> bitmap((value_count + 7) / 8, 0);
  return RawChunk{1, start_minute, value_count, E3Payload(bitmap, {})};
}

Result<simgen::GatewayTrace> ReadOnlyGateway(const std::string& path) {
  HOMETS_ASSIGN_OR_RETURN(const HometsReader reader, HometsReader::Open(path));
  return reader.ReadGateway(0);
}

// 13 bins: the last bitmap byte's five low bits are bins 8..12 and its three
// high (padding) bits are set. Visiting them would read past the stream.
TEST(ChunkDecodeTest, PaddingBitsPastTheCountAreIgnored) {
  const std::string path = WriteRawHomets(
      "padding.homets",
      {RawChunk{0, 100, 13,
                E3Payload({0xFF, 0b11101010}, {1000, 1000, 1000, 1000, 1000,
                                               1000, 1000, 1000, -500, 250})},
       PlainOutgoing(100, 13)});
  const auto gw = ReadOnlyGateway(path);
  ASSERT_TRUE(gw.ok()) << gw.status().ToString();
  ExpectSeriesIdentical(
      gw->devices[0].incoming,
      ts::TimeSeries(100, 1,
                     {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, kMiss, 7.5,
                      kMiss, 7.75, kMiss}));
  std::remove(path.c_str());
}

TEST(ChunkDecodeTest, AllMissingAndAllPresentBitmapBytes) {
  std::vector<int64_t> deltas(8, 125);  // 0.125, 0.25, ..., 1.0
  const std::string path = WriteRawHomets(
      "bytes.homets", {RawChunk{0, 0, 24, E3Payload({0x00, 0xFF, 0x00},
                                                    deltas)},
                       PlainOutgoing(0, 24)});
  const auto gw = ReadOnlyGateway(path);
  ASSERT_TRUE(gw.ok()) << gw.status().ToString();
  std::vector<double> want(24, kMiss);
  for (size_t i = 0; i < 8; ++i) {
    want[8 + i] = 0.125 * static_cast<double>(i + 1);
  }
  ExpectSeriesIdentical(gw->devices[0].incoming,
                        ts::TimeSeries(0, 1, want));
  // The all-missing outgoing column decodes to all Missing().
  ExpectSeriesIdentical(gw->devices[0].outgoing,
                        ts::TimeSeries(0, 1, std::vector<double>(24, kMiss)));
  std::remove(path.c_str());
}

TEST(ChunkDecodeTest, Raw64ChunkKeepsEveryBit) {
  const std::vector<double> present = {M_PI,   -0.0,   1e-300,
                                       -1.0 / 3.0, 9.5e18, 42.0};
  const std::string path = WriteRawHomets(
      "raw64.homets", {RawChunk{0, 40, 9, Raw64Payload({0b01011101, 0x01},
                                                       present)},
                       PlainOutgoing(40, 9)});
  const auto gw = ReadOnlyGateway(path);
  ASSERT_TRUE(gw.ok()) << gw.status().ToString();
  ExpectSeriesIdentical(
      gw->devices[0].incoming,
      ts::TimeSeries(40, 1, {M_PI, kMiss, -0.0, 1e-300, -1.0 / 3.0, kMiss,
                             9.5e18, kMiss, 42.0}));
  std::remove(path.c_str());
}

// Chunks after the first decode into their slice of the one allocation.
TEST(ChunkDecodeTest, ContiguousRunDecodesEachChunkIntoItsSlice) {
  const std::string path = WriteRawHomets(
      "run.homets", {RawChunk{0, 10, 3, E3Payload({0b101}, {2000, 1000})},
                     RawChunk{0, 13, 2, Raw64Payload({0b10}, {0.1})},
                     RawChunk{0, 15, 4, E3Payload({0b1001}, {-3000, 3500})},
                     PlainOutgoing(10, 9)});
  const auto gw = ReadOnlyGateway(path);
  ASSERT_TRUE(gw.ok()) << gw.status().ToString();
  ExpectSeriesIdentical(
      gw->devices[0].incoming,
      ts::TimeSeries(10, 1, {2.0, kMiss, 3.0, kMiss, 0.1, -3.0, kMiss, kMiss,
                             0.5}));
  std::remove(path.c_str());
}

TEST(ChunkDecodeTest, VarintStreamEndingEarlyIsIoError) {
  // Five present bins but two whole deltas and a dangling continuation byte.
  std::string payload = E3Payload({0b00011111}, {1000, 1000});
  payload.push_back(static_cast<char>(0x80));
  const std::string path = WriteRawHomets(
      "short_varint.homets",
      {RawChunk{0, 0, 8, payload}, PlainOutgoing(0, 8)});
  const auto gw = ReadOnlyGateway(path);
  EXPECT_EQ(gw.status().code(), StatusCode::kIoError);
  EXPECT_NE(gw.status().message().find("varint stream"), std::string::npos)
      << gw.status().ToString();
  std::remove(path.c_str());
}

TEST(ChunkDecodeTest, Raw64StreamEndingEarlyIsIoError) {
  std::string payload = Raw64Payload({0b11}, {1.0});
  payload += "abc";  // three bytes of the second double
  const std::string path = WriteRawHomets(
      "short_raw.homets", {RawChunk{0, 0, 2, payload}, PlainOutgoing(0, 2)});
  const auto gw = ReadOnlyGateway(path);
  EXPECT_EQ(gw.status().code(), StatusCode::kIoError);
  EXPECT_NE(gw.status().message().find("value stream"), std::string::npos)
      << gw.status().ToString();
  std::remove(path.c_str());
}

TEST(ChunkDecodeTest, NonContiguousChunkRunIsIoError) {
  const std::string path = WriteRawHomets(
      "hole.homets", {RawChunk{0, 0, 4, E3Payload({0x0F}, {1, 1, 1, 1})},
                      RawChunk{0, 10, 4, E3Payload({0x0F}, {1, 1, 1, 1})},
                      PlainOutgoing(0, 14)});
  const auto gw = ReadOnlyGateway(path);
  EXPECT_EQ(gw.status().code(), StatusCode::kIoError);
  EXPECT_NE(gw.status().message().find("non-contiguous"), std::string::npos)
      << gw.status().ToString();
  auto reader = HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->ReadSeries(0, 0, 0, 0, 14).status().code(),
            StatusCode::kIoError);
  std::remove(path.c_str());
}

// A two-week simgen gateway spans several 4096-bin chunks per column; its
// .homets decode equals its CSV read bit for bit, and so does a slice that
// straddles chunk boundaries.
TEST(ChunkDecodeTest, MultiChunkSeriesMatchesTheCsvRead) {
  simgen::SimConfig config;
  config.n_gateways = 2;
  config.weeks = 2;
  config.surveyed_gateways = 1;
  const simgen::FleetGenerator fleet(config);
  const std::string csv = TempPath("multi_chunk.csv");
  const std::string homets = TempPath("multi_chunk.homets");
  ASSERT_TRUE(io::WriteGatewayCsv(csv, fleet.Generate(0)).ok());
  const auto from_csv = io::ReadGatewayCsv(csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  ASSERT_TRUE(WriteGatewayHomets(homets, *from_csv).ok());
  auto reader = HometsReader::Open(homets);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_GE(reader->chunk_count(), 2 * from_csv->devices.size() * 3);
  const auto from_homets = reader->ReadGateway(0);
  ASSERT_TRUE(from_homets.ok()) << from_homets.status().ToString();
  ASSERT_EQ(from_homets->devices.size(), from_csv->devices.size());
  for (size_t d = 0; d < from_csv->devices.size(); ++d) {
    const simgen::DeviceTrace& want = from_csv->devices[d];
    ASSERT_GT(want.incoming.size(), 2 * kChunkValues);
    ExpectSeriesIdentical(from_homets->devices[d].incoming, want.incoming);
    ExpectSeriesIdentical(from_homets->devices[d].outgoing, want.outgoing);
    const int64_t begin = want.outgoing.start_minute() + kChunkValues - 7;
    const int64_t end = begin + kChunkValues + 20;
    const auto slice = reader->ReadSeries(0, d, 1, begin, end);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    ExpectSeriesIdentical(*slice, want.outgoing.Slice(begin, end).value());
  }
  std::remove(csv.c_str());
  std::remove(homets.c_str());
}

}  // namespace
}  // namespace homets::storage
