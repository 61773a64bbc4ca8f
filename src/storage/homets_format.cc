#include "storage/homets_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>

#include "common/failpoint.h"
#include "common/reuse.h"
#include "common/strings.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/wire.h"

namespace homets::storage {

namespace {

/// File layout constants. The magic's trailing byte doubles as the format
/// major version; a reader seeing a different byte refuses the file.
constexpr char kFileMagic[8] = {'H', 'O', 'M', 'E', 'T', 'S', 'C', '1'};
constexpr char kTrailerMagic[4] = {'H', 'T', 'S', 'F'};
/// footer offset (u64 LE) + footer CRC32 (u32 LE) + trailer magic.
constexpr size_t kTrailerSize = 8 + 4 + 4;
/// Footer wire version, varint-leading so old readers fail loudly.
constexpr uint64_t kFooterVersion = 1;
/// |v| bound under which llround(v * 1000.0) cannot overflow int64.
constexpr double kFixedE3Bound = 9.0e15;

struct StorageMetrics {
  obs::Counter* chunks_written;
  obs::Counter* chunks_read;
  obs::Counter* chunks_skipped;
  obs::Counter* bytes_written;
  obs::Counter* bytes_read;
  obs::Counter* raw_bytes;
  obs::Counter* files_written;
  obs::Counter* files_opened;
  obs::Counter* crc_failures;
};

const StorageMetrics& Metrics() {
  static const StorageMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return StorageMetrics{registry.GetCounter(obs::kStorageChunksWritten),
                          registry.GetCounter(obs::kStorageChunksRead),
                          registry.GetCounter(obs::kStorageChunksSkipped),
                          registry.GetCounter(obs::kStorageBytesWritten),
                          registry.GetCounter(obs::kStorageBytesRead),
                          registry.GetCounter(obs::kStorageRawBytes),
                          registry.GetCounter(obs::kStorageFilesWritten),
                          registry.GetCounter(obs::kStorageFilesOpened),
                          registry.GetCounter(obs::kStorageCrcFailures)};
  }();
  return metrics;
}

// CRC-32, varint/zigzag encoders and the bounds-checked ByteReader live in
// storage/wire.h, shared with the fleet checkpoint format.

// --- chunk encode / decode -------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Encodes `count` bins starting at `values`: encoding byte, presence
/// bitmap, then either zigzag-varint milli-unit deltas (when every present
/// value survives the quantization bit-exactly) or raw IEEE-754 bits.
std::string EncodeChunkPayload(const double* values, uint32_t count) {
  std::string bitmap((count + 7) / 8, '\0');
  std::vector<int64_t> milli;
  milli.reserve(count);
  std::vector<double> present;
  present.reserve(count);
  bool e3_ok = true;
  for (uint32_t i = 0; i < count; ++i) {
    const double v = values[i];
    if (ts::TimeSeries::IsMissing(v)) continue;
    bitmap[i / 8] = static_cast<char>(bitmap[i / 8] | (1 << (i % 8)));
    present.push_back(v);
    if (e3_ok) {
      if (!std::isfinite(v) || std::fabs(v) >= kFixedE3Bound) {
        e3_ok = false;
      } else {
        const int64_t q = std::llround(v * 1000.0);
        const double back = static_cast<double>(q) / 1000.0;
        if (SameBits(back, v)) {
          milli.push_back(q);
        } else {
          e3_ok = false;
        }
      }
    }
  }
  std::string payload;
  payload.push_back(static_cast<char>(e3_ok ? ChunkEncoding::kFixedE3
                                            : ChunkEncoding::kRaw64));
  payload += bitmap;
  if (e3_ok) {
    int64_t prev = 0;
    for (const int64_t q : milli) {
      PutZigzag(&payload, q - prev);
      prev = q;
    }
  } else {
    for (const double v : present) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      PutU64(&payload, bits);
    }
  }
  return payload;
}

/// Calls `fn(i)` for each set bit `i` < `count` of a presence bitmap, in
/// increasing order, stopping at the first `false`. Each byte is walked by
/// its set bits only, so an all-missing byte costs one test; padding bits
/// past `count` are never visited. Returns false if `fn` stopped the walk.
template <typename Fn>
bool ForEachPresent(const uint8_t* bitmap, uint32_t count, Fn fn) {
  const uint32_t bytes = (count + 7) / 8;
  for (uint32_t b = 0; b < bytes; ++b) {
    unsigned bits = bitmap[b];
    if (b + 1 == bytes && count % 8 != 0) bits &= (1u << (count % 8)) - 1u;
    for (; bits != 0; bits &= bits - 1u) {
      if (!fn(b * 8 + static_cast<uint32_t>(std::countr_zero(bits)))) {
        return false;
      }
    }
  }
  return true;
}

/// Decodes a payload of `count` bins into `out[0, count)`, which the caller
/// has filled with Missing(): only present bins are written.
Status DecodeChunkPayload(const uint8_t* payload, size_t size, uint32_t count,
                          double* out, const std::string& context) {
  ByteReader reader(payload, size);
  uint8_t encoding = 0;
  if (!reader.ReadU8(&encoding) ||
      encoding > static_cast<uint8_t>(ChunkEncoding::kRaw64)) {
    return Status::IoError("corrupt chunk encoding in " + context);
  }
  const uint8_t* bitmap = reader.Skip((count + 7) / 8);
  if (bitmap == nullptr) {
    return Status::IoError("corrupt chunk bitmap in " + context);
  }
  if (encoding == static_cast<uint8_t>(ChunkEncoding::kFixedE3)) {
    int64_t prev = 0;
    const bool complete = ForEachPresent(bitmap, count, [&](uint32_t i) {
      int64_t delta = 0;
      if (!reader.ReadZigzag(&delta)) return false;
      prev += delta;
      out[i] = static_cast<double>(prev) / 1000.0;
      return true;
    });
    if (!complete) {
      return Status::IoError("corrupt chunk varint stream in " + context);
    }
  } else {
    const bool complete = ForEachPresent(bitmap, count, [&](uint32_t i) {
      uint64_t bits = 0;
      if (!reader.ReadU64(&bits)) return false;
      std::memcpy(&out[i], &bits, sizeof(double));
      return true;
    });
    if (!complete) {
      return Status::IoError("corrupt chunk value stream in " + context);
    }
  }
  return Status::OK();
}

uint64_t SeriesKey(uint32_t gateway, uint32_t device, uint8_t direction) {
  return (static_cast<uint64_t>(gateway) << 32) |
         (static_cast<uint64_t>(device) << 1) | direction;
}

}  // namespace

// --- normalization ---------------------------------------------------------

Result<simgen::GatewayTrace> NormalizeToObservedSpan(
    const simgen::GatewayTrace& gateway) {
  struct Accum {
    simgen::DeviceType true_type = simgen::DeviceType::kPortable;
    simgen::DeviceType reported_type = simgen::DeviceType::kPortable;
    std::map<int64_t, std::pair<double, double>> rows;
  };
  // std::map gives the CSV reader's name-sorted device order; per-minute
  // first-observation-wins mirrors its duplicate rule.
  std::map<std::string, Accum> devices;
  int64_t min_minute = 0;
  int64_t max_minute = -1;
  for (const simgen::DeviceTrace& dev : gateway.devices) {
    for (size_t i = 0; i < dev.incoming.size(); ++i) {
      const double in_v = dev.incoming[i];
      const double out_v = i < dev.outgoing.size()
                               ? dev.outgoing[i]
                               : ts::TimeSeries::Missing();
      if (ts::TimeSeries::IsMissing(in_v) &&
          ts::TimeSeries::IsMissing(out_v)) {
        continue;  // the CSV long format stores observed minutes only
      }
      const int64_t minute = dev.incoming.MinuteAt(i);
      Accum& acc = devices[dev.name];
      acc.true_type = dev.true_type;
      acc.reported_type = dev.reported_type;
      acc.rows.emplace(minute, std::make_pair(in_v, out_v));
      if (max_minute < min_minute) {
        min_minute = minute;
        max_minute = minute;
      } else {
        min_minute = std::min(min_minute, minute);
        max_minute = std::max(max_minute, minute);
      }
    }
  }
  if (max_minute < min_minute) {
    return Status::InvalidArgument("gateway has no observed minutes");
  }

  simgen::GatewayTrace normalized;
  normalized.id = gateway.id;
  normalized.surveyed_residents = gateway.surveyed_residents;
  normalized.regular_home = gateway.regular_home;
  const size_t n = static_cast<size_t>(max_minute - min_minute + 1);
  for (auto& [name, acc] : devices) {
    simgen::DeviceTrace dev;
    dev.name = name;
    dev.true_type = acc.true_type;
    dev.reported_type = acc.reported_type;
    std::vector<double> in_vals(n, ts::TimeSeries::Missing());
    std::vector<double> out_vals(n, ts::TimeSeries::Missing());
    for (const auto& [minute, pair] : acc.rows) {
      const size_t idx = static_cast<size_t>(minute - min_minute);
      in_vals[idx] = pair.first;
      out_vals[idx] = pair.second;
    }
    dev.incoming = ts::TimeSeries(min_minute, 1, std::move(in_vals));
    dev.outgoing = ts::TimeSeries(min_minute, 1, std::move(out_vals));
    normalized.devices.push_back(std::move(dev));
  }
  return normalized;
}

// --- writer ----------------------------------------------------------------

Result<HometsWriter> HometsWriter::Create(const std::string& path) {
  obs::StageTimer stage("storage.create");
  HOMETS_FAILPOINT(kFailpointColOpen);
  HometsWriter writer;
  writer.path_ = path;
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_) return Status::IoError("cannot open for write: " + path);
  writer.out_.write(kFileMagic, sizeof(kFileMagic));
  if (!writer.out_) return Status::IoError("write failed: " + path);
  writer.offset_ = sizeof(kFileMagic);
  return writer;
}

Status HometsWriter::AppendSeries(uint32_t gateway, uint32_t device,
                                  uint8_t direction,
                                  const ts::TimeSeries& series) {
  const std::vector<double>& values = series.values();
  for (uint32_t at = 0; at < values.size(); at += kChunkValues) {
    const uint32_t count = std::min<uint32_t>(
        kChunkValues, static_cast<uint32_t>(values.size()) - at);
    const std::string payload = EncodeChunkPayload(values.data() + at, count);
    ChunkRef ref;
    ref.gateway = gateway;
    ref.device = device;
    ref.direction = direction;
    ref.start_minute = series.MinuteAt(at);
    ref.value_count = count;
    ref.offset = offset_;
    ref.payload_size = static_cast<uint32_t>(payload.size());
    ref.crc32 = Crc32(reinterpret_cast<const uint8_t*>(payload.data()),
                      payload.size());
    out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out_) return Status::IoError("write failed: " + path_);
    offset_ += payload.size();
    chunks_.push_back(ref);
    Metrics().chunks_written->Increment();
    Metrics().bytes_written->Increment(payload.size());
    Metrics().raw_bytes->Increment(sizeof(double) * count);
  }
  return Status::OK();
}

Status HometsWriter::Append(const simgen::GatewayTrace& gateway) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish: " + path_);
  }
  obs::StageTimer stage("storage.append_gateway");
  HOMETS_FAILPOINT(kFailpointColWrite);
  HOMETS_ASSIGN_OR_RETURN(const simgen::GatewayTrace normalized,
                          NormalizeToObservedSpan(gateway));
  const uint32_t g = static_cast<uint32_t>(gateways_.size());
  GatewayMeta meta;
  meta.id = normalized.id;
  meta.surveyed_residents = normalized.surveyed_residents;
  meta.regular_home = normalized.regular_home;
  for (uint32_t d = 0; d < normalized.devices.size(); ++d) {
    const simgen::DeviceTrace& dev = normalized.devices[d];
    meta.devices.push_back(
        DeviceMeta{dev.name, dev.true_type, dev.reported_type});
    HOMETS_RETURN_IF_ERROR(AppendSeries(g, d, 0, dev.incoming));
    HOMETS_RETURN_IF_ERROR(AppendSeries(g, d, 1, dev.outgoing));
  }
  gateways_.push_back(std::move(meta));
  return Status::OK();
}

size_t HometsWriter::devices_appended() const {
  size_t devices = 0;
  for (const GatewayMeta& gw : gateways_) devices += gw.devices.size();
  return devices;
}

Status HometsWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice: " + path_);
  }
  obs::StageTimer stage("storage.finish");
  HOMETS_FAILPOINT(kFailpointColWrite);
  finished_ = true;

  std::string footer;
  PutVarint(&footer, kFooterVersion);
  PutVarint(&footer, gateways_.size());
  for (const GatewayMeta& gw : gateways_) {
    PutZigzag(&footer, gw.id);
    footer.push_back(gw.surveyed_residents.has_value() ? '\1' : '\0');
    if (gw.surveyed_residents.has_value()) {
      PutZigzag(&footer, *gw.surveyed_residents);
    }
    footer.push_back(gw.regular_home ? '\1' : '\0');
    PutVarint(&footer, gw.devices.size());
    for (const DeviceMeta& dev : gw.devices) {
      PutVarint(&footer, dev.name.size());
      footer += dev.name;
      footer.push_back(static_cast<char>(dev.true_type));
      footer.push_back(static_cast<char>(dev.reported_type));
    }
  }
  PutVarint(&footer, chunks_.size());
  for (const ChunkRef& chunk : chunks_) {
    PutVarint(&footer, chunk.gateway);
    PutVarint(&footer, chunk.device);
    footer.push_back(static_cast<char>(chunk.direction));
    PutZigzag(&footer, chunk.start_minute);
    PutVarint(&footer, chunk.value_count);
    PutVarint(&footer, chunk.offset);
    PutVarint(&footer, chunk.payload_size);
    PutU32(&footer, chunk.crc32);
  }

  std::string trailer;
  PutU64(&trailer, offset_);
  PutU32(&trailer, Crc32(reinterpret_cast<const uint8_t*>(footer.data()),
                         footer.size()));
  trailer.append(kTrailerMagic, sizeof(kTrailerMagic));

  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out_.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  out_.flush();
  if (!out_) return Status::IoError("write failed: " + path_);
  Metrics().bytes_written->Increment(footer.size() + trailer.size());
  Metrics().files_written->Increment();
  return Status::OK();
}

Status WriteGatewayHomets(const std::string& path,
                          const simgen::GatewayTrace& gateway) {
  HOMETS_ASSIGN_OR_RETURN(HometsWriter writer, HometsWriter::Create(path));
  HOMETS_RETURN_IF_ERROR(writer.Append(gateway));
  return writer.Finish();
}

Result<FleetWriteStats> WriteFleetHomets(const simgen::FleetGenerator& fleet,
                                         const std::string& path) {
  obs::StageTimer stage("storage.write_fleet");
  HOMETS_ASSIGN_OR_RETURN(HometsWriter writer, HometsWriter::Create(path));
  FleetWriteStats stats;
  for (int id = 0; id < fleet.config().n_gateways; ++id) {
    // One gateway in memory at a time: generate, append, discard.
    const Status appended = writer.Append(fleet.Generate(id));
    if (!appended.ok()) {
      // A gateway with nothing observed is unreadable as CSV too; drop it
      // so both formats expose the same gateway set.
      if (appended.code() == StatusCode::kInvalidArgument) {
        ++stats.gateways_skipped;
        continue;
      }
      return appended;
    }
  }
  HOMETS_RETURN_IF_ERROR(writer.Finish());
  stats.gateways = writer.gateways_appended();
  stats.devices = writer.devices_appended();
  stats.chunks = writer.chunks_written();
  return stats;
}

// --- reader ----------------------------------------------------------------

struct HometsReader::Rep {
  std::string path;
  int fd = -1;
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool mmapped = false;
  std::string buffer;  ///< fallback storage when mmap is unavailable
  std::vector<GatewayMeta> gateways;
  std::vector<ChunkRef> chunks;
  /// (gateway, device, direction) -> indices into `chunks`, time-sorted.
  std::map<uint64_t, std::vector<size_t>> series_index;

  ~Rep() {
    if (mmapped && data != nullptr) {
      munmap(const_cast<uint8_t*>(data), size);
    }
    if (fd >= 0) close(fd);
  }
};

namespace {

/// Maps (or, failing that, reads) the file into rep. Size and magic are
/// validated by the caller.
Status LoadFile(const std::string& path, HometsReader::Rep* rep) {
  rep->fd = open(path.c_str(), O_RDONLY);
  if (rep->fd < 0) return Status::IoError("cannot open for read: " + path);
  struct stat st {};
  if (fstat(rep->fd, &st) != 0 || st.st_size < 0) {
    return Status::IoError("cannot stat: " + path);
  }
  rep->size = static_cast<size_t>(st.st_size);
  if (rep->size == 0) return Status::IoError("empty file: " + path);
  void* mapped = mmap(nullptr, rep->size, PROT_READ, MAP_PRIVATE, rep->fd, 0);
  if (mapped != MAP_FAILED) {
    rep->data = static_cast<const uint8_t*>(mapped);
    rep->mmapped = true;
    return Status::OK();
  }
  // Buffered fallback (e.g. filesystems without mmap support).
  rep->buffer.resize(rep->size);
  size_t done = 0;
  while (done < rep->size) {
    const ssize_t got =
        pread(rep->fd, rep->buffer.data() + done, rep->size - done,
              static_cast<off_t>(done));
    if (got <= 0) return Status::IoError("read failed: " + path);
    done += static_cast<size_t>(got);
  }
  rep->data = reinterpret_cast<const uint8_t*>(rep->buffer.data());
  return Status::OK();
}

Status ParseFooter(const uint8_t* footer, size_t footer_size,
                   uint64_t footer_offset, HometsReader::Rep* rep) {
  const std::string& path = rep->path;
  const auto corrupt = [&path](const char* what) {
    return Status::IoError(StrFormat("corrupt homets footer in %s: %s",
                                     path.c_str(), what));
  };
  ByteReader reader(footer, footer_size);
  uint64_t version = 0;
  if (!reader.ReadVarint(&version)) return corrupt("missing version");
  if (version != kFooterVersion) {
    return Status::InvalidArgument(
        StrFormat("%s: unsupported homets footer version %llu", path.c_str(),
                  static_cast<unsigned long long>(version)));
  }
  uint64_t gateway_count = 0;
  if (!reader.ReadVarint(&gateway_count)) return corrupt("gateway count");
  for (uint64_t g = 0; g < gateway_count; ++g) {
    GatewayMeta meta;
    int64_t id = 0;
    uint8_t has_residents = 0;
    uint8_t regular = 0;
    uint64_t device_count = 0;
    if (!reader.ReadZigzag(&id)) return corrupt("gateway id");
    meta.id = static_cast<int>(id);
    if (!reader.ReadU8(&has_residents)) return corrupt("survey flag");
    if (has_residents != 0) {
      int64_t residents = 0;
      if (!reader.ReadZigzag(&residents)) return corrupt("residents");
      meta.surveyed_residents = static_cast<int>(residents);
    }
    if (!reader.ReadU8(&regular)) return corrupt("regular flag");
    meta.regular_home = regular != 0;
    if (!reader.ReadVarint(&device_count)) return corrupt("device count");
    for (uint64_t d = 0; d < device_count; ++d) {
      DeviceMeta dev;
      uint64_t name_len = 0;
      if (!reader.ReadVarint(&name_len)) return corrupt("device name length");
      const uint8_t* name = reader.Skip(name_len);
      if (name == nullptr) return corrupt("device name");
      dev.name.assign(reinterpret_cast<const char*>(name), name_len);
      uint8_t true_type = 0;
      uint8_t reported_type = 0;
      if (!reader.ReadU8(&true_type) || !reader.ReadU8(&reported_type) ||
          true_type > static_cast<uint8_t>(simgen::DeviceType::kUnlabeled) ||
          reported_type >
              static_cast<uint8_t>(simgen::DeviceType::kUnlabeled)) {
        return corrupt("device type");
      }
      dev.true_type = static_cast<simgen::DeviceType>(true_type);
      dev.reported_type = static_cast<simgen::DeviceType>(reported_type);
      meta.devices.push_back(std::move(dev));
    }
    rep->gateways.push_back(std::move(meta));
  }
  uint64_t chunk_count = 0;
  if (!reader.ReadVarint(&chunk_count)) return corrupt("chunk count");
  for (uint64_t c = 0; c < chunk_count; ++c) {
    ChunkRef ref;
    uint64_t gateway = 0;
    uint64_t device = 0;
    uint8_t direction = 0;
    uint64_t value_count = 0;
    uint64_t payload_size = 0;
    if (!reader.ReadVarint(&gateway) || !reader.ReadVarint(&device) ||
        !reader.ReadU8(&direction) || !reader.ReadZigzag(&ref.start_minute) ||
        !reader.ReadVarint(&value_count) || !reader.ReadVarint(&ref.offset) ||
        !reader.ReadVarint(&payload_size) || !reader.ReadU32(&ref.crc32)) {
      return corrupt("chunk entry");
    }
    if (gateway >= rep->gateways.size() ||
        device >= rep->gateways[gateway].devices.size() || direction > 1 ||
        value_count == 0 || value_count > kChunkValues ||
        ref.offset < sizeof(kFileMagic) || ref.offset > footer_offset ||
        payload_size > footer_offset - ref.offset) {
      return corrupt("chunk bounds");
    }
    ref.gateway = static_cast<uint32_t>(gateway);
    ref.device = static_cast<uint32_t>(device);
    ref.direction = direction;
    ref.value_count = static_cast<uint32_t>(value_count);
    ref.payload_size = static_cast<uint32_t>(payload_size);
    const size_t index = rep->chunks.size();
    rep->chunks.push_back(ref);
    rep->series_index[SeriesKey(ref.gateway, ref.device, ref.direction)]
        .push_back(index);
  }
  if (reader.remaining() != 0) return corrupt("trailing bytes");
  for (auto& [key, refs] : rep->series_index) {
    (void)key;
    std::sort(refs.begin(), refs.end(), [rep](size_t a, size_t b) {
      return rep->chunks[a].start_minute < rep->chunks[b].start_minute;
    });
  }
  return Status::OK();
}

/// Decodes one chunk into `out[0, ref.value_count)` (pre-filled with
/// Missing()), applying the io.col.chunk failpoint and verifying the CRC
/// before touching the payload structure.
Status DecodeChunk(const HometsReader::Rep& rep, const ChunkRef& ref,
                   double* out) {
  const uint8_t* payload = rep.data + ref.offset;
  size_t size = ref.payload_size;
  std::string mangled;
  switch (EvaluateFailpoint(kFailpointColChunk)) {
    case FailpointAction::kError:
      return Status::IoError("injected by failpoint 'io.col.chunk'");
    case FailpointAction::kCorrupt:
      mangled.assign(reinterpret_cast<const char*>(payload), size);
      if (!mangled.empty()) mangled[0] = static_cast<char>(~mangled[0]);
      payload = reinterpret_cast<const uint8_t*>(mangled.data());
      break;
    case FailpointAction::kTruncate:
      size /= 2;
      break;
    default:
      break;
  }
  if (Crc32(payload, size) != ref.crc32) {
    Metrics().crc_failures->Increment();
    obs::LogError("storage", "chunk crc mismatch",
                  {obs::LogField::Str("path", rep.path),
                   obs::LogField::Uint("offset", ref.offset)});
    return Status::IoError(
        StrFormat("chunk crc mismatch in %s at offset %llu", rep.path.c_str(),
                  static_cast<unsigned long long>(ref.offset)));
  }
  HOMETS_RETURN_IF_ERROR(
      DecodeChunkPayload(payload, size, ref.value_count, out, rep.path));
  Metrics().chunks_read->Increment();
  Metrics().bytes_read->Increment(ref.payload_size);
  return Status::OK();
}

/// Decodes the chunk run `refs[first, last)` of one series into `*series`,
/// reusing its buffer. The run must be adjacent on the minute grid; that is
/// checked first, so the buffer is sized once, by the footer-validated value
/// counts, and each chunk decodes into its slice. A chunk that fails to
/// decode leaves `*series` holding the run's grid with the bins decoded so
/// far (the rest Missing), never a buffer of another series.
Status AssembleSeries(const HometsReader::Rep& rep,
                      const std::vector<size_t>& refs, size_t first,
                      size_t last, ts::TimeSeries* series) {
  const int64_t start = rep.chunks[refs[first]].start_minute;
  int64_t expected = start;
  for (size_t i = first; i < last; ++i) {
    const ChunkRef& ref = rep.chunks[refs[i]];
    if (ref.start_minute != expected) {
      return Status::IoError("non-contiguous chunk run in " + rep.path);
    }
    expected += static_cast<int64_t>(ref.value_count);
  }
  std::vector<double> values = std::move(series->mutable_values());
  values.assign(static_cast<size_t>(expected - start),
                ts::TimeSeries::Missing());
  Status status = Status::OK();
  double* out = values.data();
  for (size_t i = first; i < last && status.ok(); ++i) {
    const ChunkRef& ref = rep.chunks[refs[i]];
    status = DecodeChunk(rep, ref, out);
    out += ref.value_count;
  }
  *series = ts::TimeSeries(start, 1, std::move(values));
  return status;
}

}  // namespace

HometsReader::HometsReader(HometsReader&&) noexcept = default;
HometsReader& HometsReader::operator=(HometsReader&&) noexcept = default;
HometsReader::~HometsReader() = default;

Result<HometsReader> HometsReader::Open(const std::string& path) {
  obs::StageTimer stage("storage.open");
  HOMETS_FAILPOINT(kFailpointColOpen);
  HometsReader reader;
  reader.rep_ = std::make_unique<Rep>();
  Rep* rep = reader.rep_.get();
  rep->path = path;
  HOMETS_RETURN_IF_ERROR(LoadFile(path, rep));
  Metrics().files_opened->Increment();
  if (rep->size < sizeof(kFileMagic) ||
      std::memcmp(rep->data, kFileMagic, sizeof(kFileMagic)) != 0) {
    return Status::InvalidArgument("not a homets file (bad magic): " + path);
  }
  if (rep->size < sizeof(kFileMagic) + kTrailerSize) {
    // Good magic but no room for a trailer: a write died before Finish.
    obs::LogWarn("storage", "torn homets file",
                 {obs::LogField::Str("path", path)});
    return Status::IoError("torn homets file (missing trailer): " + path);
  }
  ByteReader trailer(rep->data + rep->size - kTrailerSize, kTrailerSize);
  uint64_t footer_offset = 0;
  uint32_t footer_crc = 0;
  bool trailer_ok = trailer.ReadU64(&footer_offset);
  trailer_ok = trailer_ok && trailer.ReadU32(&footer_crc);
  const uint8_t* magic = trailer.Skip(sizeof(kTrailerMagic));
  if (!trailer_ok || magic == nullptr ||
      std::memcmp(magic, kTrailerMagic, sizeof(kTrailerMagic)) != 0) {
    obs::LogWarn("storage", "torn homets file",
                 {obs::LogField::Str("path", path)});
    return Status::IoError("torn homets file (missing trailer): " + path);
  }
  if (footer_offset < sizeof(kFileMagic) ||
      footer_offset > rep->size - kTrailerSize) {
    return Status::IoError("corrupt homets trailer in " + path);
  }
  const uint8_t* footer = rep->data + footer_offset;
  const size_t footer_size = rep->size - kTrailerSize - footer_offset;
  if (Crc32(footer, footer_size) != footer_crc) {
    Metrics().crc_failures->Increment();
    obs::LogError("storage", "footer crc mismatch",
                  {obs::LogField::Str("path", path)});
    return Status::IoError("footer crc mismatch in " + path);
  }
  HOMETS_RETURN_IF_ERROR(ParseFooter(footer, footer_size, footer_offset, rep));
  return reader;
}

size_t HometsReader::gateway_count() const { return rep_->gateways.size(); }

const GatewayMeta& HometsReader::gateway_meta(size_t gateway) const {
  return rep_->gateways[gateway];
}

size_t HometsReader::chunk_count() const { return rep_->chunks.size(); }

bool HometsReader::mmap_backed() const { return rep_->mmapped; }

Result<simgen::GatewayTrace> HometsReader::ReadGateway(size_t gateway) const {
  simgen::GatewayTrace trace;
  std::vector<simgen::DeviceTrace> spare_devices;
  HOMETS_RETURN_IF_ERROR(ReadGateway(gateway, &trace, &spare_devices));
  return trace;
}

Status HometsReader::ReadGateway(
    size_t gateway, simgen::GatewayTrace* trace,
    std::vector<simgen::DeviceTrace>* spare_devices) const {
  obs::StageTimer stage("storage.read_gateway");
  const Rep& rep = *rep_;
  if (gateway >= rep.gateways.size()) {
    return Status::OutOfRange(
        StrFormat("gateway %zu out of range in %s (%zu gateways)", gateway,
                  rep.path.c_str(), rep.gateways.size()));
  }
  const GatewayMeta& meta = rep.gateways[gateway];
  trace->id = meta.id;
  trace->surveyed_residents = meta.surveyed_residents;
  trace->regular_home = meta.regular_home;
  ResizeKeepingElements(&trace->devices, meta.devices.size(), spare_devices);
  for (uint32_t d = 0; d < meta.devices.size(); ++d) {
    simgen::DeviceTrace& dev = trace->devices[d];
    dev.name = meta.devices[d].name;
    dev.true_type = meta.devices[d].true_type;
    dev.reported_type = meta.devices[d].reported_type;
    for (uint8_t direction = 0; direction <= 1; ++direction) {
      const auto it = rep.series_index.find(
          SeriesKey(static_cast<uint32_t>(gateway), d, direction));
      if (it == rep.series_index.end()) {
        return Status::IoError(StrFormat("missing column for device %s in %s",
                                         dev.name.c_str(), rep.path.c_str()));
      }
      HOMETS_RETURN_IF_ERROR(
          AssembleSeries(rep, it->second, 0, it->second.size(),
                         direction == 0 ? &dev.incoming : &dev.outgoing));
    }
  }
  return Status::OK();
}

Result<ts::TimeSeries> HometsReader::ReadSeries(size_t gateway, size_t device,
                                                uint8_t direction,
                                                int64_t begin_minute,
                                                int64_t end_minute) const {
  obs::StageTimer stage("storage.read_series");
  const Rep& rep = *rep_;
  if (begin_minute >= end_minute) {
    return Status::InvalidArgument("empty minute range");
  }
  const auto it = rep.series_index.find(SeriesKey(
      static_cast<uint32_t>(gateway), static_cast<uint32_t>(device),
      direction));
  if (it == rep.series_index.end()) {
    return Status::NotFound(
        StrFormat("no series (gateway %zu, device %zu, direction %u) in %s",
                  gateway, device, direction, rep.path.c_str()));
  }
  const std::vector<size_t>& refs = it->second;
  size_t first = refs.size();
  size_t last = 0;
  for (size_t i = 0; i < refs.size(); ++i) {
    const ChunkRef& ref = rep.chunks[refs[i]];
    const int64_t chunk_end =
        ref.start_minute + static_cast<int64_t>(ref.value_count);
    if (ref.start_minute < end_minute && chunk_end > begin_minute) {
      first = std::min(first, i);
      last = std::max(last, i + 1);
    }
  }
  if (first >= last) {
    Metrics().chunks_skipped->Increment(refs.size());
    return ts::TimeSeries();  // no overlap: an empty series, not an error
  }
  ts::TimeSeries assembled;
  HOMETS_RETURN_IF_ERROR(AssembleSeries(rep, refs, first, last, &assembled));
  Metrics().chunks_skipped->Increment(refs.size() - (last - first));
  const int64_t clip_begin = std::max(begin_minute, assembled.start_minute());
  const int64_t clip_end = std::min(end_minute, assembled.EndMinute());
  return assembled.Slice(clip_begin, clip_end);
}

}  // namespace homets::storage
