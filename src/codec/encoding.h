#ifndef TXREP_CODEC_ENCODING_H_
#define TXREP_CODEC_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace txrep::codec {

/// Low-level binary primitives (RocksDB-style): all Append* functions append
/// to `dst`; all Get* functions consume from the front of `*src` and return
/// false on underflow/corruption.

void AppendFixed64(std::string& dst, uint64_t value);
bool GetFixed64(std::string_view* src, uint64_t* value);

/// Little-endian fixed-width 32-bit value (wire-frame body lengths).
void AppendFixed32(std::string& dst, uint32_t value);
bool GetFixed32(std::string_view* src, uint32_t* value);

void AppendVarint64(std::string& dst, uint64_t value);
bool GetVarint64(std::string_view* src, uint64_t* value);

/// Varint element count of a sequence whose elements each encode to at least
/// one byte. Fails when fewer bytes than that remain, so a decoder may
/// reserve `*count` elements without trusting a hostile count.
bool GetCount(std::string_view* src, uint64_t* count);

/// Varint length followed by raw bytes.
void AppendLengthPrefixed(std::string& dst, std::string_view bytes);
bool GetLengthPrefixed(std::string_view* src, std::string_view* bytes);

/// Doubles are stored as their IEEE-754 bit pattern (fixed64).
void AppendDouble(std::string& dst, double value);
bool GetDouble(std::string_view* src, double* value);

/// ZigZag transform so small negative int64s stay small varints.
uint64_t ZigZagEncode(int64_t value);
int64_t ZigZagDecode(uint64_t value);

/// FNV-1a 64-bit hash — the project's record/file checksum (disk node log
/// records, checkpoint snapshot files and manifests all use it).
uint64_t Fnv1a(std::string_view bytes);

}  // namespace txrep::codec

#endif  // TXREP_CODEC_ENCODING_H_
