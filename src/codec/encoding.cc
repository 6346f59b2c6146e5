#include "codec/encoding.h"

#include <cstring>

namespace txrep::codec {

void AppendFixed64(std::string& dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  dst.append(buf, 8);
}

bool GetFixed64(std::string_view* src, uint64_t* value) {
  if (src->size() < 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>((*src)[i])) << (8 * i);
  }
  *value = v;
  src->remove_prefix(8);
  return true;
}

void AppendFixed32(std::string& dst, uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  dst.append(buf, 4);
}

bool GetFixed32(std::string_view* src, uint32_t* value) {
  if (src->size() < 4) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>((*src)[i])) << (8 * i);
  }
  *value = v;
  src->remove_prefix(4);
  return true;
}

void AppendVarint64(std::string& dst, uint64_t value) {
  while (value >= 0x80) {
    dst.push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  dst.push_back(static_cast<char>(value));
}

bool GetVarint64(std::string_view* src, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (src->empty()) return false;
    const auto byte = static_cast<unsigned char>((*src)[0]);
    src->remove_prefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;  // > 10 bytes: corrupt.
}

void AppendLengthPrefixed(std::string& dst, std::string_view bytes) {
  AppendVarint64(dst, bytes.size());
  dst.append(bytes.data(), bytes.size());
}

bool GetCount(std::string_view* src, uint64_t* count) {
  return GetVarint64(src, count) && *count <= src->size();
}

bool GetLengthPrefixed(std::string_view* src, std::string_view* bytes) {
  uint64_t len = 0;
  if (!GetVarint64(src, &len)) return false;
  if (src->size() < len) return false;
  *bytes = src->substr(0, len);
  src->remove_prefix(len);
  return true;
}

void AppendDouble(std::string& dst, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendFixed64(dst, bits);
}

bool GetDouble(std::string_view* src, double* value) {
  uint64_t bits = 0;
  if (!GetFixed64(src, &bits)) return false;
  std::memcpy(value, &bits, sizeof(bits));
  return true;
}

uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace txrep::codec
