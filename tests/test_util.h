#ifndef TXREP_TESTS_TEST_UTIL_H_
#define TXREP_TESTS_TEST_UTIL_H_

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/transaction_manager.h"
#include "kv/inmemory_node.h"
#include "kv/kv_store.h"
#include "qt/query_translator.h"
#include "rel/database.h"
#include "rel/txlog.h"

#include "gtest/gtest.h"

namespace txrep::testing {

/// Gtest helper: asserts a Status is OK, printing it otherwise.
#define TXREP_ASSERT_OK(expr)                                \
  do {                                                       \
    ::txrep::Status _s = (expr);                             \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();     \
  } while (0)

#define TXREP_EXPECT_OK(expr)                                \
  do {                                                       \
    ::txrep::Status _s = (expr);                             \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();     \
  } while (0)

/// Replays the full transaction log of `db` serially into `store`
/// (snapshot-free: the store must start empty; indexes are initialized).
Status ReplaySerial(rel::Database& db, const qt::QueryTranslator& translator,
                    kv::KvStore* store);

/// Replays the full transaction log of `db` through a TransactionManager
/// with the given options. Returns the TM stats through `stats_out` if
/// non-null.
Status ReplayConcurrent(rel::Database& db,
                        const qt::QueryTranslator& translator,
                        kv::KvStore* store, core::TmOptions options,
                        core::TmStats* stats_out = nullptr);

/// Asserts two store dumps are byte-identical; on mismatch prints the first
/// differing key.
void ExpectDumpsEqual(kv::KvStore& a, kv::KvStore& b);

/// Verifies the replica's *logical* content matches the database: every row
/// present and equal, row-object count consistent, hash-index postings
/// exactly the matching row keys, every B-link range index containing
/// exactly the expected (value, row key) entries and passing structural
/// validation.
void VerifyReplicaMatchesDatabase(kv::KvStore& store, rel::Database& db,
                                  const qt::QueryTranslator& translator);

/// In-memory node that holds back every write batch touching `blocked_key`
/// until Release().
class BlockingStore : public kv::InMemoryKvNode {
 public:
  explicit BlockingStore(kv::Key blocked_key)
      : blocked_key_(std::move(blocked_key)) {}

  Status MultiWrite(std::span<const kv::KvWrite> batch,
                    size_t* applied) override {
    for (const kv::KvWrite& write : batch) {
      if (write.key != blocked_key_) continue;
      while (!released_.load()) SleepForMicros(100);
    }
    return kv::InMemoryKvNode::MultiWrite(batch, applied);
  }

  void Release() { released_.store(true); }

 private:
  const kv::Key blocked_key_;
  std::atomic<bool> released_{false};
};

}  // namespace txrep::testing

#endif  // TXREP_TESTS_TEST_UTIL_H_
