#include "fleet/checkpoint.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/wire.h"

namespace homets::fleet {

namespace {

constexpr char kCheckpointMagic[8] = {'H', 'S', 'H', 'A', 'R', 'D',
                                      'C', '1'};

/// FNV-1a 64-bit over a byte string.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 1469598103934665603ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Status WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("fleet: cannot open '" + path + "' for write");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    return Status::IoError("fleet: short write to '" + path + "'");
  }
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("fleet: no file at '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("fleet: read failed for '" + path + "'");
  }
  return buffer.str();
}

Status Untrusted(const std::string& why) {
  return Status::FailedPrecondition("fleet: checkpoint " + why);
}

}  // namespace

uint64_t FleetFingerprint(const FleetInputs& inputs, int n_shards,
                          std::string_view format_name) {
  // A canonical string keyed field-by-field; any change to the input set,
  // its order, the shard layout or the schema flips the fingerprint and
  // invalidates prior checkpoints.
  std::string canonical;
  canonical += "ckpt_schema=" + StrFormat("%llu", static_cast<unsigned long long>(
                                                      kCheckpointSchemaVersion));
  canonical += ";shards=" + StrFormat("%d", n_shards);
  canonical += ";format=" + std::string(format_name);
  canonical += ";gateways=" + StrFormat("%zu", inputs.gateways.size());
  for (size_t i = 0; i < inputs.paths.size(); ++i) {
    // Size alone misses an in-place edit that keeps the byte count; mtime
    // makes such a checkpoint stale instead of silently accepted.
    const uint64_t mtime =
        i < inputs.mtime_ns.size() ? inputs.mtime_ns[i] : 0;
    canonical += ";input=" + inputs.paths[i] + ":" +
                 StrFormat("%llu@%llu",
                           static_cast<unsigned long long>(inputs.bytes[i]),
                           static_cast<unsigned long long>(mtime));
  }
  return Fnv1a(canonical);
}

std::string ShardCheckpointPath(const std::string& dir, int shard_index) {
  return dir + StrFormat("/shard-%05d.ckpt", shard_index);
}

std::string EncodeShardCheckpoint(const ShardResult& result,
                                  uint64_t fingerprint) {
  std::string payload;
  storage::PutVarint(&payload, kCheckpointSchemaVersion);
  storage::PutU64(&payload, fingerprint);
  storage::PutVarint(&payload, static_cast<uint64_t>(result.plan.shard_index));
  storage::PutVarint(&payload,
                     static_cast<uint64_t>(result.plan.begin_gateway));
  storage::PutVarint(&payload, static_cast<uint64_t>(result.plan.end_gateway));
  storage::PutVarint(&payload, result.gateways.size());
  for (const GatewaySummary& g : result.gateways) {
    storage::PutZigzag(&payload, g.gateway_id);
    const uint8_t flags = static_cast<uint8_t>(
        (g.eligible ? 1u : 0u) | (g.weekly_stationary ? 2u : 0u));
    payload.push_back(static_cast<char>(flags));
    storage::PutVarint(&payload, g.devices_observed);
    storage::PutVarint(&payload, g.dominant_count);
    storage::PutVarint(&payload, g.min_residents);
    storage::PutZigzag(&payload, g.quietest_slot);
    storage::PutU64(&payload, DoubleBits(g.evening_share));
    storage::PutVarint(&payload, g.tau_small);
    storage::PutVarint(&payload, g.tau_medium);
    storage::PutVarint(&payload, g.tau_large);
    storage::PutVarint(&payload, g.daily_windows);
    storage::PutVarint(&payload, g.daily_motifs);
  }
  storage::PutVarint(&payload, result.zipf_bins.size());
  for (const uint64_t count : result.zipf_bins) {
    storage::PutVarint(&payload, count);
  }
  storage::PutVarint(&payload, result.values_binned);

  std::string bytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  bytes += payload;
  storage::PutU32(&bytes,
                  storage::Crc32(
                      reinterpret_cast<const uint8_t*>(payload.data()),
                      payload.size()));
  return bytes;
}

Result<ShardResult> DecodeShardCheckpoint(const std::string& bytes,
                                          uint64_t fingerprint) {
  if (bytes.size() < sizeof(kCheckpointMagic) + 4) {
    return Untrusted("truncated");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return Untrusted("has wrong magic");
  }
  const size_t payload_size = bytes.size() - sizeof(kCheckpointMagic) - 4;
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(bytes.data()) + sizeof(kCheckpointMagic);
  storage::ByteReader crc_reader(payload + payload_size, 4);
  uint32_t stored_crc = 0;
  crc_reader.ReadU32(&stored_crc);
  if (storage::Crc32(payload, payload_size) != stored_crc) {
    return Untrusted("failed its CRC check (torn write?)");
  }
  storage::ByteReader reader(payload, payload_size);
  uint64_t schema = 0;
  if (!reader.ReadVarint(&schema) || schema != kCheckpointSchemaVersion) {
    return Untrusted("has unsupported schema version");
  }
  uint64_t stored_fingerprint = 0;
  if (!reader.ReadU64(&stored_fingerprint)) return Untrusted("truncated");
  if (stored_fingerprint != fingerprint) {
    return Untrusted("is stale (fingerprint mismatch)");
  }
  ShardResult result;
  uint64_t shard_index = 0, begin = 0, end = 0, n_gateways = 0;
  if (!reader.ReadVarint(&shard_index) || !reader.ReadVarint(&begin) ||
      !reader.ReadVarint(&end) || !reader.ReadVarint(&n_gateways)) {
    return Untrusted("truncated");
  }
  result.plan.shard_index = static_cast<int>(shard_index);
  result.plan.begin_gateway = static_cast<int>(begin);
  result.plan.end_gateway = static_cast<int>(end);
  if (n_gateways != end - begin) return Untrusted("is inconsistent");
  result.gateways.reserve(n_gateways);
  for (uint64_t i = 0; i < n_gateways; ++i) {
    GatewaySummary g;
    int64_t gateway_id = 0, quietest = 0;
    uint8_t flags = 0;
    uint64_t devices = 0, dominant = 0, residents = 0, share_bits = 0;
    uint64_t tau_small = 0, tau_medium = 0, tau_large = 0;
    uint64_t windows = 0, motifs = 0;
    if (!reader.ReadZigzag(&gateway_id) || !reader.ReadU8(&flags) ||
        !reader.ReadVarint(&devices) || !reader.ReadVarint(&dominant) ||
        !reader.ReadVarint(&residents) || !reader.ReadZigzag(&quietest) ||
        !reader.ReadU64(&share_bits) || !reader.ReadVarint(&tau_small) ||
        !reader.ReadVarint(&tau_medium) || !reader.ReadVarint(&tau_large) ||
        !reader.ReadVarint(&windows) || !reader.ReadVarint(&motifs)) {
      return Untrusted("truncated");
    }
    g.gateway_id = static_cast<int32_t>(gateway_id);
    g.eligible = (flags & 1u) != 0;
    g.weekly_stationary = (flags & 2u) != 0;
    g.devices_observed = static_cast<uint32_t>(devices);
    g.dominant_count = static_cast<uint32_t>(dominant);
    g.min_residents = static_cast<uint32_t>(residents);
    g.quietest_slot = static_cast<int32_t>(quietest);
    g.evening_share = DoubleFromBits(share_bits);
    g.tau_small = static_cast<uint32_t>(tau_small);
    g.tau_medium = static_cast<uint32_t>(tau_medium);
    g.tau_large = static_cast<uint32_t>(tau_large);
    g.daily_windows = static_cast<uint32_t>(windows);
    g.daily_motifs = static_cast<uint32_t>(motifs);
    result.gateways.push_back(g);
  }
  uint64_t n_bins = 0;
  if (!reader.ReadVarint(&n_bins) || n_bins != kZipfBins) {
    return Untrusted("has wrong zipf bin layout");
  }
  result.zipf_bins.assign(kZipfBins, 0);
  for (uint64_t b = 0; b < n_bins; ++b) {
    if (!reader.ReadVarint(&result.zipf_bins[b])) return Untrusted("truncated");
  }
  if (!reader.ReadVarint(&result.values_binned)) return Untrusted("truncated");
  if (reader.remaining() != 0) return Untrusted("has trailing bytes");
  return result;
}

Status WriteShardCheckpoint(const std::string& dir, const ShardResult& result,
                            uint64_t fingerprint, uint64_t attempt) {
  static obs::Counter* const written =
      obs::MetricsRegistry::Global().GetCounter(obs::kFleetCheckpointsWritten);
  const std::string path = ShardCheckpointPath(dir, result.plan.shard_index);
  std::string bytes = EncodeShardCheckpoint(result, fingerprint);
  if (Failpoints::Global().armed()) {
    const uint64_t index = static_cast<uint64_t>(result.plan.shard_index) + 1;
    switch (Failpoints::Global().EvaluateAt(kFailpointCkptWrite, index,
                                            attempt)) {
      case FailpointAction::kError:
        return Status::IoError("injected by failpoint 'io.ckpt.write'");
      case FailpointAction::kTruncate:
        // A simulated crash: half the bytes land under the FINAL name, as
        // if power was lost after rename but before the data flushed. The
        // CRC check catches it on resume.
        return WriteFileBytes(path,
                              std::string_view(bytes).substr(0, bytes.size() / 2));
      case FailpointAction::kCorrupt:
        bytes[bytes.size() / 2] = static_cast<char>(
            static_cast<uint8_t>(bytes[bytes.size() / 2]) ^ 0xFFu);
        break;
      default:
        break;
    }
  }
  const std::string tmp = path + ".tmp";
  HOMETS_RETURN_IF_ERROR(WriteFileBytes(tmp, bytes));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("fleet: rename to '" + path + "' failed");
  }
  written->Increment();
  return Status::OK();
}

Result<ShardResult> ReadShardCheckpoint(const std::string& dir,
                                        int shard_index,
                                        uint64_t fingerprint) {
  if (Failpoints::Global().armed()) {
    HOMETS_RETURN_IF_ERROR(Failpoints::Global().InjectedErrorAt(
        kFailpointCkptRead, static_cast<uint64_t>(shard_index) + 1));
  }
  HOMETS_ASSIGN_OR_RETURN(
      const std::string bytes,
      ReadFileBytes(ShardCheckpointPath(dir, shard_index)));
  HOMETS_ASSIGN_OR_RETURN(ShardResult result,
                          DecodeShardCheckpoint(bytes, fingerprint));
  if (result.plan.shard_index != shard_index) {
    return Untrusted("belongs to another shard");
  }
  return result;
}

// --- checkpoint-directory lock --------------------------------------------

std::string FleetLockPath(const std::string& dir) { return dir + "/LOCK"; }

FleetLock::FleetLock(FleetLock&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

FleetLock& FleetLock::operator=(FleetLock&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

FleetLock::~FleetLock() {
  if (fd_ >= 0) ::close(fd_);
}

Result<FleetLock> AcquireFleetLock(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("fleet: cannot create checkpoint dir '" + dir +
                           "'");
  }
  const std::string lock_path = FleetLockPath(dir);
  // The lock is per open file description, so a second acquire in this
  // process is refused just like one from another process.
  const int fd = ::open(lock_path.c_str(),
                        O_RDWR | O_CREAT | O_CLOEXEC | O_NOFOLLOW, 0644);
  if (fd < 0) {
    const int err = errno;
    return Status::IoError("fleet: cannot open '" + lock_path +
                           "': " + std::strerror(err));
  }
  FleetLock lock(fd);
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    if (err == EWOULDBLOCK) {
      return Status::FailedPrecondition(
          "fleet: checkpoint dir '" + dir + "' is held by another run");
    }
    return Status::IoError("fleet: cannot lock '" + lock_path +
                           "': " + std::strerror(err));
  }
  return lock;
}

}  // namespace homets::fleet
