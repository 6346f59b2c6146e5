// Checkpoint protocol unit tests: file formats, the write/load/install
// cycle, crash injection at every protocol step, pruning and the catch-up
// gate. The crash-ordering invariant under test: a checkpoint exists iff its
// manifest is durable; the cursor is only ever a hint.

#include "recov/checkpoint.h"

#include <string>
#include <vector>

#include "codec/encoding.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "kv/kv_cluster.h"
#include "recov/catchup_gate.h"
#include "recov/cursor.h"
#include "recov/io.h"
#include "recov/manifest.h"
#include "test_util.h"

namespace txrep::recov {
namespace {

class RecovCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "txrep_recov_chk_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    TXREP_ASSERT_OK(RemoveDirRecursive(dir_));
    TXREP_ASSERT_OK(EnsureDir(dir_));
  }
  void TearDown() override { TXREP_ASSERT_OK(RemoveDirRecursive(dir_)); }

  std::string dir_;
};

void Fill(kv::KvStore& store, int salt, int keys) {
  for (int i = 0; i < keys; ++i) {
    EXPECT_TRUE(store
                    .Put("k" + std::to_string(salt) + "-" + std::to_string(i),
                         "v" + std::to_string(i * salt))
                    .ok());
  }
}

TEST_F(RecovCheckpointTest, ManifestRoundTrip) {
  CheckpointManifest manifest;
  manifest.snapshot_epoch = 42;
  manifest.files.push_back(SnapshotFileInfo{"chk-a", 100, 7, 0xdeadbeef});
  manifest.files.push_back(SnapshotFileInfo{"chk-b", 0, 0, 0});

  const std::string encoded = manifest.Encode();
  Result<CheckpointManifest> decoded = CheckpointManifest::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->snapshot_epoch, 42u);
  ASSERT_EQ(decoded->files.size(), 2u);
  EXPECT_EQ(decoded->files[0].name, "chk-a");
  EXPECT_EQ(decoded->files[0].bytes, 100u);
  EXPECT_EQ(decoded->files[0].records, 7u);
  EXPECT_EQ(decoded->files[0].checksum, 0xdeadbeefu);

  // Any single-byte flip must be detected.
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string bad = encoded;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(CheckpointManifest::Decode(bad).ok())
        << "flip at offset " << i << " went undetected";
  }
  // Truncation at every offset must be detected.
  for (size_t i = 0; i < encoded.size(); ++i) {
    EXPECT_FALSE(CheckpointManifest::Decode(encoded.substr(0, i)).ok())
        << "truncation to " << i << " bytes went undetected";
  }
  // Trailing junk must be detected too.
  EXPECT_FALSE(CheckpointManifest::Decode(encoded + "x").ok());
}

TEST_F(RecovCheckpointTest, HugeEntryCountsAreCorruption) {
  // Version 1, then (manifest) epoch 7 or (snapshot) nothing, then a count
  // no remaining bytes can hold — behind a correct checksum.
  auto with_count = [](std::vector<uint64_t> header) {
    std::string body;
    header.push_back(uint64_t{1} << 62);
    for (uint64_t field : header) codec::AppendVarint64(body, field);
    codec::AppendFixed64(body, codec::Fnv1a(body));
    return body;
  };
  EXPECT_TRUE(CheckpointManifest::Decode(with_count({1, 7}))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeSnapshotPayload(with_count({1})).status().IsCorruption());
}

TEST_F(RecovCheckpointTest, FileNames) {
  const std::string name = ManifestFileName(7);
  uint64_t epoch = 0;
  EXPECT_TRUE(ParseManifestFileName(name, &epoch));
  EXPECT_EQ(epoch, 7u);
  EXPECT_FALSE(ParseManifestFileName("MANIFEST-xyz", &epoch));
  EXPECT_FALSE(ParseManifestFileName("CURSOR", &epoch));
  // Zero-padded → lexicographic order equals epoch order.
  EXPECT_LT(ManifestFileName(9), ManifestFileName(10));
  EXPECT_LT(SnapshotFileName(9, 0), SnapshotFileName(10, 0));
}

TEST_F(RecovCheckpointTest, CursorRoundTripAndTorn) {
  EXPECT_TRUE(LoadCursor(dir_).status().IsNotFound());
  TXREP_ASSERT_OK(StoreCursor(dir_, CursorState{9, ManifestFileName(9)}));
  Result<CursorState> cursor = LoadCursor(dir_);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->epoch, 9u);
  EXPECT_EQ(cursor->manifest_file, ManifestFileName(9));

  // A torn cursor is corruption, not silently LSN 0.
  TXREP_ASSERT_OK(WriteFileRaw(dir_ + "/" + CursorFileName(), "torn"));
  EXPECT_TRUE(LoadCursor(dir_).status().IsCorruption());
}

TEST_F(RecovCheckpointTest, WriteLoadInstallRoundTrip) {
  kv::InMemoryKvNode a;
  Fill(a, 1, 20);
  kv::InMemoryKvNode b;
  Fill(b, 2, 0);  // One shard empty.
  CheckpointWriter writer(dir_);
  Result<CheckpointStats> stats =
      writer.Write(5, std::vector<kv::KvStore*>{&a, &b});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->epoch, 5u);
  EXPECT_EQ(stats->total_records, 20u);

  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(dir_, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->manifest.snapshot_epoch, 5u);
  EXPECT_TRUE(loaded->cursor_matched);

  kv::InMemoryKvNode ra, rb;
  // Pre-pollute one target: install must clear before loading.
  TXREP_ASSERT_OK(ra.Put("stale", "junk"));
  TXREP_ASSERT_OK(
      InstallCheckpoint(*loaded, std::vector<kv::KvStore*>{&ra, &rb}));
  testing::ExpectDumpsEqual(a, ra);
  testing::ExpectDumpsEqual(b, rb);

  // Re-writing an existing epoch is an error.
  EXPECT_TRUE(writer.Write(5, std::vector<kv::KvStore*>{&a, &b})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RecovCheckpointTest, LatestUsableCheckpointWinsAndPrune) {
  kv::InMemoryKvNode v1;
  Fill(v1, 1, 5);
  kv::InMemoryKvNode v2;
  Fill(v2, 1, 12);
  CheckpointWriter writer(dir_);
  ASSERT_TRUE(writer.Write(3, std::vector<kv::KvStore*>{&v1}).ok());
  ASSERT_TRUE(writer.Write(8, std::vector<kv::KvStore*>{&v2}).ok());

  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(dir_, nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->manifest.snapshot_epoch, 8u);

  TXREP_ASSERT_OK(writer.Prune(8));
  Result<std::vector<std::string>> names = ListDir(dir_);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    EXPECT_EQ(name.find(ManifestFileName(3)), std::string::npos);
    EXPECT_EQ(name.find(SnapshotFileName(3, 0)), std::string::npos);
  }
  // Epoch 8 must still load after pruning.
  EXPECT_TRUE(LoadLatestCheckpoint(dir_, nullptr).ok());
}

TEST_F(RecovCheckpointTest, CrashBetweenSnapshotFilesLeavesNoCheckpoint) {
  kv::InMemoryKvNode a;
  Fill(a, 1, 4);
  kv::InMemoryKvNode b;
  Fill(b, 2, 4);
  CheckpointWriter writer(dir_);
  CheckpointFaults faults;
  faults.fail_after_files = 1;  // Crash after shard 0, before shard 1.
  writer.set_faults(faults);
  EXPECT_FALSE(writer.Write(6, std::vector<kv::KvStore*>{&a, &b}).ok());

  // No manifest → no checkpoint, regardless of orphan .snap debris.
  EXPECT_TRUE(LoadLatestCheckpoint(dir_, nullptr).status().IsNotFound());

  // The same epoch can be retried once the fault clears.
  writer.set_faults(CheckpointFaults{});
  ASSERT_TRUE(writer.Write(6, std::vector<kv::KvStore*>{&a, &b}).ok());
  EXPECT_TRUE(LoadLatestCheckpoint(dir_, nullptr).ok());
}

TEST_F(RecovCheckpointTest, TornManifestFallsBackToPreviousCheckpoint) {
  kv::InMemoryKvNode v1;
  Fill(v1, 1, 6);
  kv::InMemoryKvNode v2;
  Fill(v2, 1, 9);
  CheckpointWriter writer(dir_);
  ASSERT_TRUE(writer.Write(4, std::vector<kv::KvStore*>{&v1}).ok());

  CheckpointFaults faults;
  faults.tear_manifest = true;
  writer.set_faults(faults);
  EXPECT_FALSE(writer.Write(9, std::vector<kv::KvStore*>{&v2}).ok());

  // The torn epoch-9 manifest must be rejected; epoch 4 is still the truth.
  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(dir_, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->manifest.snapshot_epoch, 4u);

  kv::InMemoryKvNode restored;
  TXREP_ASSERT_OK(
      InstallCheckpoint(*loaded, std::vector<kv::KvStore*>{&restored}));
  testing::ExpectDumpsEqual(v1, restored);
}

TEST_F(RecovCheckpointTest, StaleCursorIsOnlyAHint) {
  kv::InMemoryKvNode v1;
  Fill(v1, 1, 3);
  kv::InMemoryKvNode v2;
  Fill(v2, 1, 7);
  CheckpointWriter writer(dir_);
  ASSERT_TRUE(writer.Write(2, std::vector<kv::KvStore*>{&v1}).ok());

  // Crash after the manifest committed but before the cursor advanced: the
  // epoch-5 checkpoint EXISTS (its manifest is durable) even though the
  // cursor still points at epoch 2.
  CheckpointFaults faults;
  faults.skip_cursor = true;
  writer.set_faults(faults);
  EXPECT_FALSE(writer.Write(5, std::vector<kv::KvStore*>{&v2}).ok());

  Result<CursorState> cursor = LoadCursor(dir_);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->epoch, 2u);

  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(dir_, nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->manifest.snapshot_epoch, 5u);
  EXPECT_FALSE(loaded->cursor_matched);
}

TEST_F(RecovCheckpointTest, CorruptSnapshotFileRejectsThatCheckpoint) {
  kv::InMemoryKvNode v1;
  Fill(v1, 1, 6);
  kv::InMemoryKvNode v2;
  Fill(v2, 1, 11);
  CheckpointWriter writer(dir_);
  ASSERT_TRUE(writer.Write(1, std::vector<kv::KvStore*>{&v1}).ok());
  ASSERT_TRUE(writer.Write(2, std::vector<kv::KvStore*>{&v2}).ok());

  // Flip one byte in the newest snapshot file: recovery must fall back to
  // epoch 1 rather than trust a corrupt epoch 2.
  const std::string victim = dir_ + "/" + SnapshotFileName(2, 0);
  Result<std::string> contents = ReadFileToString(victim);
  ASSERT_TRUE(contents.ok());
  (*contents)[contents->size() / 2] ^= 0x01;
  TXREP_ASSERT_OK(WriteFileRaw(victim, *contents));

  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(dir_, nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->manifest.snapshot_epoch, 1u);
}

TEST_F(RecovCheckpointTest, InstallReshardsOnNodeCountChange) {
  kv::KvClusterOptions three;
  three.num_nodes = 3;
  kv::KvCluster source(three);
  for (int i = 0; i < 40; ++i) {
    TXREP_ASSERT_OK(source.Put("key" + std::to_string(i), "v"));
  }
  CheckpointWriter writer(dir_);
  ASSERT_TRUE(writer.Write(1, source).ok());

  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(dir_, nullptr);
  ASSERT_TRUE(loaded.ok());

  kv::KvClusterOptions two;
  two.num_nodes = 2;
  kv::KvCluster target(two);
  TXREP_ASSERT_OK(InstallCheckpoint(*loaded, target));
  testing::ExpectDumpsEqual(source, target);

  // Shard-count mismatch on the raw-store overload is an error, not a
  // silent partial install.
  kv::InMemoryKvNode lone;
  EXPECT_TRUE(InstallCheckpoint(*loaded, std::vector<kv::KvStore*>{&lone})
                  .IsInvalidArgument());
}

TEST(CatchupGateTest, OpensOncePermanentlyAtThreshold) {
  CatchupGate gate(5);
  EXPECT_FALSE(gate.IsOpen());
  EXPECT_TRUE(gate.CheckReadAdmissible().IsFailedPrecondition());

  gate.Update(10, 100);  // Lag 90: stays closed.
  EXPECT_FALSE(gate.IsOpen());
  EXPECT_TRUE(gate.CheckReadAdmissible().IsFailedPrecondition());
  EXPECT_EQ(gate.lag(), 90u);

  gate.Update(96, 100);  // Lag 4 <= 5: opens.
  EXPECT_TRUE(gate.IsOpen());
  TXREP_EXPECT_OK(gate.CheckReadAdmissible());

  gate.Update(96, 1000);  // Lag grows again, but the gate stays open.
  EXPECT_TRUE(gate.IsOpen());
  TXREP_EXPECT_OK(gate.CheckReadAdmissible());
  EXPECT_TRUE(gate.WaitUntilOpenFor(0));
}

TEST(CatchupGateTest, ZeroLagThresholdNeedsExactCatchup) {
  CatchupGate gate(0);
  gate.Update(99, 100);
  EXPECT_FALSE(gate.IsOpen());
  EXPECT_FALSE(gate.WaitUntilOpenFor(1000));
  gate.Update(100, 100);
  EXPECT_TRUE(gate.IsOpen());
}

}  // namespace
}  // namespace txrep::recov
