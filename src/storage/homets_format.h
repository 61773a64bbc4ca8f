#ifndef HOMETS_STORAGE_HOMETS_FORMAT_H_
#define HOMETS_STORAGE_HOMETS_FORMAT_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "simgen/fleet.h"
#include "simgen/types.h"
#include "ts/time_series.h"

// The `homets` binary columnar trace format (DESIGN.md §11).
//
// A .homets file holds one or more gateway traces as per-(device, direction)
// column chunks of minute counters. Each chunk covers a contiguous run of
// the device's step-1 minute grid (frame of reference: the chunk's
// start_minute; at most kChunkValues bins) and is CRC32-protected. Values
// are encoded per chunk as either
//   kFixedE3  delta + zigzag + varint over milli-unit integers — chosen only
//             when every present value survives the quantization bit-exactly
//             (true for anything that ever passed through the CSV exporter's
//             %.3f cells), or
//   kRaw64    raw little-endian IEEE-754 bits — the lossless fallback.
// Missing bins (NaN) are carried by a presence bitmap, so decoded series are
// bit-identical to what the resilient CSV reader produces, including the
// Missing values of minutes that have no row.
//
// The file ends with a varint-encoded index footer (gateway/device metadata
// plus one entry per chunk) and a fixed 16-byte trailer locating it, so
// readers read and decode exactly the chunks a (gateway, device,
// time-range) request overlaps — nothing else of the file is read.
namespace homets::storage {

/// Bins per column chunk; the random-access granularity (~2.8 days of
/// minutes). Small enough that a time-range slice decodes little beyond its
/// overlap, large enough that varint streams amortize the chunk header.
inline constexpr uint32_t kChunkValues = 4096;

/// Per-chunk value encodings. Stable wire values; append only.
enum class ChunkEncoding : uint8_t {
  kFixedE3 = 0,  ///< delta+zigzag+varint milli-units (bit-exact verified)
  kRaw64 = 1,    ///< little-endian IEEE-754 doubles
};

/// One column chunk in the footer index.
struct ChunkRef {
  uint32_t gateway = 0;      ///< index into the file's gateway table
  uint32_t device = 0;       ///< index into the gateway's device table
  uint8_t direction = 0;     ///< 0 = incoming, 1 = outgoing
  int64_t start_minute = 0;  ///< absolute minute of the chunk's first bin
  uint32_t value_count = 0;  ///< bins covered (present + missing)
  uint64_t offset = 0;       ///< payload offset from the start of the file
  uint32_t payload_size = 0;
  uint32_t crc32 = 0;        ///< CRC32 (IEEE) of the payload bytes
};

/// Device metadata stored in the footer (the CSV long format's identity
/// columns).
struct DeviceMeta {
  std::string name;
  simgen::DeviceType true_type = simgen::DeviceType::kPortable;
  simgen::DeviceType reported_type = simgen::DeviceType::kPortable;
};

/// Gateway metadata stored in the footer. Unlike CSV, the columnar format
/// keeps the simulator's gateway id, survey label and regularity ground
/// truth; CSV-converted files carry the CSV defaults (0 / unset / false).
struct GatewayMeta {
  int id = 0;
  std::optional<int> surveyed_residents;
  bool regular_home = false;
  std::vector<DeviceMeta> devices;
};

/// \brief Rewrites `gateway` into the shape a CSV write→read round trip
/// produces: devices merged and sorted by name, never-observed devices
/// dropped, and every surviving series expanded onto the gateway-wide step-1
/// minute grid [min, max] of observed minutes (unobserved bins Missing).
///
/// HometsWriter::Append applies this before encoding, which is what makes
/// analysis outputs byte-identical across --input-format=csv and
/// --input-format=homets. Fails with InvalidArgument when no device has a
/// single observed minute (the CSV reader rejects such files too).
Result<simgen::GatewayTrace> NormalizeToObservedSpan(
    const simgen::GatewayTrace& gateway);

/// \brief Streaming writer: Append gateways one at a time (chunks go to disk
/// immediately; only the index is held in memory), then Finish writes the
/// footer + trailer. Failing to Finish leaves an unreadable torn file — by
/// design, so half-written fleets are never mistaken for data.
class HometsWriter {
 public:
  static Result<HometsWriter> Create(const std::string& path);

  HometsWriter(HometsWriter&&) = default;
  HometsWriter& operator=(HometsWriter&&) = default;

  /// Normalizes and appends one gateway trace (see NormalizeToObservedSpan).
  Status Append(const simgen::GatewayTrace& gateway);

  /// Writes the index footer and trailer; the writer is unusable afterwards.
  Status Finish();

  size_t gateways_appended() const { return gateways_.size(); }
  size_t devices_appended() const;
  size_t chunks_written() const { return chunks_.size(); }

 private:
  HometsWriter() = default;

  Status AppendSeries(uint32_t gateway, uint32_t device, uint8_t direction,
                      const ts::TimeSeries& series);

  std::string path_;
  std::ofstream out_;
  uint64_t offset_ = 0;
  bool finished_ = false;
  std::vector<GatewayMeta> gateways_;
  std::vector<ChunkRef> chunks_;
};

/// \brief Writes a single-gateway .homets file (Create + Append + Finish).
Status WriteGatewayHomets(const std::string& path,
                          const simgen::GatewayTrace& gateway);

/// What WriteFleetHomets put on disk.
struct FleetWriteStats {
  size_t gateways = 0;
  size_t devices = 0;
  size_t chunks = 0;
  /// Gateways with no observed minute at all. The CSV exporter writes them
  /// as header-only files the CSV reader rejects, so the columnar fleet
  /// drops them too — keeping the readable-gateway set identical.
  size_t gateways_skipped = 0;
};

/// \brief Streams an entire simgen fleet into one .homets file, one gateway
/// at a time — the out-of-core generation path: peak memory is a single
/// gateway trace plus the index, regardless of fleet size.
Result<FleetWriteStats> WriteFleetHomets(const simgen::FleetGenerator& fleet,
                                         const std::string& path);

/// \brief pread-based reader. Open reads and validates only the magic,
/// trailer and footer; ReadGateway/ReadSeries pread the chunks they decode
/// into a private buffer that is freed once they are decoded, so a
/// time-range slice reads no unrelated bytes and a file that shrank since
/// Open is an IoError. The reader has no mutable state after Open: one
/// const reader may serve many threads.
class HometsReader {
 public:
  static Result<HometsReader> Open(const std::string& path);

  // Out-of-line so the pimpl stays incomplete in this header.
  HometsReader(HometsReader&&) noexcept;
  HometsReader& operator=(HometsReader&&) noexcept;
  ~HometsReader();

  size_t gateway_count() const;
  const GatewayMeta& gateway_meta(size_t gateway) const;
  size_t chunk_count() const;

  /// Decodes every chunk of gateway `gateway` into a full GatewayTrace
  /// (devices in stored — name-sorted — order, bit-exact values).
  Result<simgen::GatewayTrace> ReadGateway(size_t gateway) const;

  /// ReadGateway into `*trace`, reusing the buffers of its devices' series:
  /// every field is rewritten, so nothing of the trace it held before
  /// survives a successful read. A gateway with fewer devices than `*trace`
  /// parks the surplus in `*spare_devices`, and one with more takes them
  /// back first (ResizeKeepingElements). On error `*trace` is partly
  /// rewritten and must not be used as a gateway.
  Status ReadGateway(size_t gateway, simgen::GatewayTrace* trace,
                     std::vector<simgen::DeviceTrace>* spare_devices) const;

  /// Decodes only the chunks of (gateway, device, direction) overlapping
  /// [begin_minute, end_minute) and returns that range clipped to the
  /// series' coverage; bounds must be minute-aligned ints.
  /// homets.storage.chunks_read counts the chunks decoded and
  /// homets.storage.chunks_skipped the series' other chunks, the ones
  /// outside the range.
  Result<ts::TimeSeries> ReadSeries(size_t gateway, size_t device,
                                    uint8_t direction, int64_t begin_minute,
                                    int64_t end_minute) const;

  /// Opaque implementation record (defined in homets_format.cc; public only
  /// so the file-local parse/decode helpers there can name it).
  struct Rep;

 private:
  HometsReader() = default;

  std::unique_ptr<Rep> rep_;
};

}  // namespace homets::storage

#endif  // HOMETS_STORAGE_HOMETS_FORMAT_H_
