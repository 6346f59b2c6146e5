#include "recov/manifest.h"

#include <cinttypes>
#include <cstdio>

#include "codec/encoding.h"

namespace txrep::recov {

namespace {

// Version byte leading every recov on-disk structure, bumped on layout change.
constexpr uint64_t kManifestVersion = 1;
constexpr uint64_t kSnapshotVersion = 1;

constexpr char kManifestPrefix[] = "MANIFEST-";

}  // namespace

std::string CheckpointManifest::Encode() const {
  std::string body;
  codec::AppendVarint64(body, kManifestVersion);
  codec::AppendVarint64(body, snapshot_epoch);
  codec::AppendVarint64(body, files.size());
  for (const SnapshotFileInfo& file : files) {
    codec::AppendLengthPrefixed(body, file.name);
    codec::AppendVarint64(body, file.bytes);
    codec::AppendVarint64(body, file.records);
    codec::AppendFixed64(body, file.checksum);
  }
  codec::AppendFixed64(body, codec::Fnv1a(body));
  return body;
}

Result<CheckpointManifest> CheckpointManifest::Decode(std::string_view bytes) {
  if (bytes.size() < 8) {
    return Status::Corruption("manifest shorter than its checksum");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  std::string_view tail = bytes.substr(bytes.size() - 8);
  uint64_t stored = 0;
  codec::GetFixed64(&tail, &stored);
  if (stored != codec::Fnv1a(body)) {
    return Status::Corruption("manifest checksum mismatch (torn write?)");
  }

  std::string_view src = body;
  uint64_t version = 0;
  uint64_t num_files = 0;
  CheckpointManifest manifest;
  if (!codec::GetVarint64(&src, &version) || version != kManifestVersion) {
    return Status::Corruption("unsupported manifest version");
  }
  if (!codec::GetVarint64(&src, &manifest.snapshot_epoch) ||
      !codec::GetCount(&src, &num_files)) {
    return Status::Corruption("manifest header underflow");
  }
  manifest.files.reserve(num_files);
  for (uint64_t i = 0; i < num_files; ++i) {
    SnapshotFileInfo file;
    std::string_view name;
    if (!codec::GetLengthPrefixed(&src, &name) ||
        !codec::GetVarint64(&src, &file.bytes) ||
        !codec::GetVarint64(&src, &file.records) ||
        !codec::GetFixed64(&src, &file.checksum)) {
      return Status::Corruption("manifest file entry underflow");
    }
    file.name = std::string(name);
    manifest.files.push_back(std::move(file));
  }
  if (!src.empty()) {
    return Status::Corruption("trailing bytes after manifest entries");
  }
  return manifest;
}

std::string ManifestFileName(uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%016" PRIu64, kManifestPrefix, epoch);
  return buf;
}

bool ParseManifestFileName(std::string_view name, uint64_t* epoch) {
  constexpr size_t kPrefixLen = sizeof(kManifestPrefix) - 1;
  if (name.size() != kPrefixLen + 16 || name.substr(0, kPrefixLen) != kManifestPrefix) {
    return false;
  }
  uint64_t value = 0;
  for (char c : name.substr(kPrefixLen)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *epoch = value;
  return true;
}

std::string SnapshotFileName(uint64_t epoch, int node_index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "chk-%016" PRIu64 "-node-%d.snap", epoch,
                node_index);
  return buf;
}

std::string EncodeSnapshotPayload(
    const std::vector<std::pair<std::string, std::string>>& dump) {
  std::string body;
  codec::AppendVarint64(body, kSnapshotVersion);
  codec::AppendVarint64(body, dump.size());
  for (const auto& [key, value] : dump) {
    codec::AppendLengthPrefixed(body, key);
    codec::AppendLengthPrefixed(body, value);
  }
  codec::AppendFixed64(body, codec::Fnv1a(body));
  return body;
}

Result<std::vector<std::pair<std::string, std::string>>> DecodeSnapshotPayload(
    std::string_view bytes) {
  if (bytes.size() < 8) {
    return Status::Corruption("snapshot file shorter than its checksum");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  std::string_view tail = bytes.substr(bytes.size() - 8);
  uint64_t stored = 0;
  codec::GetFixed64(&tail, &stored);
  if (stored != codec::Fnv1a(body)) {
    return Status::Corruption("snapshot file checksum mismatch");
  }

  std::string_view src = body;
  uint64_t version = 0;
  uint64_t count = 0;
  if (!codec::GetVarint64(&src, &version) || version != kSnapshotVersion) {
    return Status::Corruption("unsupported snapshot version");
  }
  if (!codec::GetCount(&src, &count)) {
    return Status::Corruption("snapshot header underflow");
  }
  std::vector<std::pair<std::string, std::string>> dump;
  dump.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view key;
    std::string_view value;
    if (!codec::GetLengthPrefixed(&src, &key) ||
        !codec::GetLengthPrefixed(&src, &value)) {
      return Status::Corruption("snapshot record underflow");
    }
    dump.emplace_back(std::string(key), std::string(value));
  }
  if (!src.empty()) {
    return Status::Corruption("trailing bytes after snapshot records");
  }
  return dump;
}

}  // namespace txrep::recov
