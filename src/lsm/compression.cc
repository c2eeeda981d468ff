#include "lsm/compression.h"

#include <cstring>

#include "common/coding.h"

namespace lsmio::lsm {

// Format:
//   varint64 uncompressed_length
//   sequence of tokens:
//     literal: 0x00 | varint32(len) | bytes
//     copy:    0x01 | varint32(len) | varint32(distance)
// Minimum match length 4; max distance 64 KiB (16-bit hash window).

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxDistance = 1 << 16;
constexpr int kHashBits = 14;

inline uint32_t HashWord(const char* p) noexcept {
  uint32_t w;
  std::memcpy(&w, p, 4);
  return (w * 2654435761u) >> (32 - kHashBits);
}

void EmitLiteral(std::string* out, const char* p, size_t len) {
  if (len == 0) return;
  out->push_back('\x00');
  PutVarint32(out, static_cast<uint32_t>(len));
  out->append(p, len);
}

void EmitCopy(std::string* out, size_t len, size_t distance) {
  out->push_back('\x01');
  PutVarint32(out, static_cast<uint32_t>(len));
  PutVarint32(out, static_cast<uint32_t>(distance));
}

}  // namespace

void LzLiteCompress(const Slice& input, std::string* output) {
  output->clear();
  PutVarint64(output, input.size());
  const char* base = input.data();
  const size_t n = input.size();
  if (n < kMinMatch + 4) {
    EmitLiteral(output, base, n);
    return;
  }

  // Hash table of last-seen positions for 4-byte words.
  uint32_t table[1 << kHashBits];
  std::memset(table, 0xff, sizeof table);

  size_t pos = 0;
  size_t literal_start = 0;
  const size_t match_limit = n - kMinMatch;

  while (pos <= match_limit) {
    const uint32_t h = HashWord(base + pos);
    const uint32_t candidate = table[h];
    table[h] = static_cast<uint32_t>(pos);

    if (candidate != 0xffffffffu && pos - candidate <= kMaxDistance &&
        std::memcmp(base + candidate, base + pos, kMinMatch) == 0) {
      // Extend the match.
      size_t match_len = kMinMatch;
      const size_t max_len = n - pos;
      while (match_len < max_len &&
             base[candidate + match_len] == base[pos + match_len]) {
        ++match_len;
      }
      EmitLiteral(output, base + literal_start, pos - literal_start);
      EmitCopy(output, match_len, pos - candidate);
      // Insert a few positions inside the match to keep the table fresh.
      const size_t end = pos + match_len;
      for (size_t i = pos + 1; i + 4 <= end && i <= match_limit; i += 3) {
        table[HashWord(base + i)] = static_cast<uint32_t>(i);
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  EmitLiteral(output, base + literal_start, n - literal_start);
}

Status LzLiteDecompress(const Slice& input, std::string* output) {
  output->clear();
  Slice in = input;
  uint64_t expected = 0;
  if (!GetVarint64(&in, &expected)) {
    return Status::Corruption("lz-lite: bad length header");
  }
  // The header is untrusted: nothing is allocated by it alone, and no token
  // may grow the output past it.
  while (!in.empty()) {
    const char tag = in[0];
    in.remove_prefix(1);
    uint32_t len = 0;
    if (!GetVarint32(&in, &len)) return Status::Corruption("lz-lite: bad token length");
    if (len > expected - output->size()) {
      return Status::Corruption("lz-lite: token overruns the length header");
    }
    if (tag == '\x00') {
      if (in.size() < len) return Status::Corruption("lz-lite: truncated literal");
      output->append(in.data(), len);
      in.remove_prefix(len);
    } else if (tag == '\x01') {
      uint32_t distance = 0;
      if (!GetVarint32(&in, &distance)) return Status::Corruption("lz-lite: bad copy distance");
      if (distance == 0 || distance > output->size()) {
        return Status::Corruption("lz-lite: copy distance out of range");
      }
      // Overlapping copies are valid (RLE-style): copy byte by byte.
      size_t from = output->size() - distance;
      for (uint32_t i = 0; i < len; ++i) {
        output->push_back((*output)[from + i]);
      }
    } else {
      return Status::Corruption("lz-lite: unknown token tag");
    }
  }
  if (output->size() != expected) {
    return Status::Corruption("lz-lite: length mismatch after decompress");
  }
  return Status::OK();
}

}  // namespace lsmio::lsm
