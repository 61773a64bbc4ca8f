#ifndef HOMETS_FLEET_CHECKPOINT_H_
#define HOMETS_FLEET_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "fleet/shard.h"

// Crash-safe shard checkpoints (DESIGN.md §15.2).
//
// Each completed shard is persisted as one small file in --checkpoint-dir:
//
//   "HSHARDC1" | payload | CRC-32(payload)
//
// The payload (storage/wire.h varints, little-endian fixed ints, raw
// IEEE-754 bits for doubles) starts with the checkpoint schema version and
// the run fingerprint, so a resumed run silently discards checkpoints that
// are torn (CRC), from another input set / shard layout (fingerprint), or
// from an older code version (schema). Writes go to a ".tmp" sibling and
// are atomically renamed into place: a crash mid-write leaves no partial
// file under the final name, and a torn final file (power loss after
// rename) is caught by the CRC on read.
namespace homets::fleet {

/// Bump on any incompatible change to the checkpoint payload.
inline constexpr uint64_t kCheckpointSchemaVersion = 1;

/// \brief FNV-1a 64-bit fingerprint of everything that must match for a
/// checkpoint to be reusable: input paths with sizes, mtimes and order, the
/// shard layout, the dataset format policy, and the checkpoint schema
/// version. The mtime catches an input edited in place without changing
/// size, which size alone would wave through.
uint64_t FleetFingerprint(const FleetInputs& inputs, int n_shards,
                          std::string_view format_name);

/// Canonical checkpoint file path for one shard.
std::string ShardCheckpointPath(const std::string& dir, int shard_index);

/// \brief Serializes a shard result (magic + payload + CRC).
std::string EncodeShardCheckpoint(const ShardResult& result,
                                  uint64_t fingerprint);

/// \brief Parses checkpoint bytes; FailedPrecondition on a magic/CRC/
/// schema/fingerprint mismatch (the caller discards and re-runs the shard).
Result<ShardResult> DecodeShardCheckpoint(const std::string& bytes,
                                          uint64_t fingerprint);

/// \brief Writes the shard checkpoint via tmp-file + atomic rename. The
/// `io.ckpt.write` failpoint is evaluated per (shard index, attempt):
/// `error` fails the write, `truncate` leaves a torn file under the final
/// name (a simulated crash), `corrupt` flips a payload byte.
Status WriteShardCheckpoint(const std::string& dir, const ShardResult& result,
                            uint64_t fingerprint, uint64_t attempt = 1);

/// \brief Loads and validates one shard checkpoint. NotFound when the file
/// does not exist; FailedPrecondition when it exists but cannot be trusted.
/// The `io.ckpt.read` failpoint injects IoError per shard index.
Result<ShardResult> ReadShardCheckpoint(const std::string& dir,
                                        int shard_index, uint64_t fingerprint);

// --- checkpoint-directory lock --------------------------------------------

std::string FleetLockPath(const std::string& dir);

/// \brief Exclusive hold on a checkpoint directory: an open descriptor of
/// `dir/LOCK` carrying flock(LOCK_EX). The kernel drops the lock when the
/// descriptor closes, on destruction or when the process dies (SIGKILL
/// included), so a killed run never leaves the directory wedged. The LOCK
/// file itself stays: unlinking it would let two runs lock different inodes.
class FleetLock {
 public:
  FleetLock() = default;
  explicit FleetLock(int fd) : fd_(fd) {}
  FleetLock(FleetLock&& other) noexcept;
  FleetLock& operator=(FleetLock&& other) noexcept;
  FleetLock(const FleetLock&) = delete;
  FleetLock& operator=(const FleetLock&) = delete;
  ~FleetLock();

 private:
  int fd_ = -1;
};

/// \brief Creates `dir` (one level) if needed and locks `dir/LOCK`
/// without waiting. FailedPrecondition when another holder, in this or any
/// other process (flock(1) included), has it; IoError when the file cannot
/// be opened or locked, e.g. when LOCK is a symlink (O_NOFOLLOW).
Result<FleetLock> AcquireFleetLock(const std::string& dir);

}  // namespace homets::fleet

#endif  // HOMETS_FLEET_CHECKPOINT_H_
