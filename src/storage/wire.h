#ifndef HOMETS_STORAGE_WIRE_H_
#define HOMETS_STORAGE_WIRE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

// Wire-format primitives shared by every on-disk artifact in the repo: the
// columnar .homets files (storage/homets_format.cc) and the fleet shard
// checkpoints (fleet/checkpoint.cc). Keeping the encoders and the
// bounds-checked decoder in one header guarantees the two formats agree on
// byte order, varint shape and CRC polynomial, so a checkpoint reader can
// never "almost" parse a chunk and vice versa.
namespace homets::storage {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slice-by-8 (Kounavis & Berry,
/// ISCC 2005): eight bytes per step through eight 256-entry tables, where
/// table k advances a byte's CRC by k further zero bytes. The value equals
/// the bytewise table algorithm's for every input; tails under eight bytes
/// take that bytewise step.
inline uint32_t Crc32(const uint8_t* data, size_t size) {
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  // Little-endian word from four bytes, whatever the host's byte order.
  const auto load32 = [](const uint8_t* p) {
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
  };
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ load32(data);
    const uint32_t hi = load32(data + 4);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = tables[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- little-endian / varint primitives -------------------------------------

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80u) {
    out->push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1u) + 1u));
}

inline void PutZigzag(std::string* out, int64_t v) {
  PutVarint(out, ZigzagEncode(v));
}

/// Bounds-checked sequential decoder over a byte span; every Read returns
/// false instead of running past the end, so corrupt lengths surface as a
/// clean Status, never a wild read.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadVarint(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) return false;
      const uint8_t byte = data_[pos_++];
      result |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) {
        *v = result;
        return true;
      }
    }
    return false;
  }

  bool ReadZigzag(int64_t* v) {
    uint64_t raw = 0;
    if (!ReadVarint(&raw)) return false;
    *v = ZigzagDecode(raw);
    return true;
  }

  bool ReadU8(uint8_t* v) {
    if (pos_ >= size_) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    uint32_t result = 0;
    for (int i = 0; i < 4; ++i) {
      result |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = result;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    uint64_t result = 0;
    for (int i = 0; i < 8; ++i) {
      result |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = result;
    return true;
  }

  const uint8_t* Skip(size_t n) {
    if (pos_ + n > size_) return nullptr;
    const uint8_t* at = data_ + pos_;
    pos_ += n;
    return at;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace homets::storage

#endif  // HOMETS_STORAGE_WIRE_H_
