#ifndef TXREP_TESTS_TEST_UTIL_H_
#define TXREP_TESTS_TEST_UTIL_H_

#include <mutex>
#include <set>
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

/// In-memory node that holds back every write batch touching one of
/// `blocked_keys` until that key is released.
class BlockingStore : public kv::InMemoryKvNode {
 public:
  explicit BlockingStore(std::set<kv::Key> blocked_keys)
      : blocked_keys_(std::move(blocked_keys)) {}

  Status MultiWrite(std::span<const kv::KvWrite> batch,
                    size_t* applied) override {
    for (const kv::KvWrite& write : batch) {
      while (Blocked(write.key)) SleepForMicros(100);
    }
    return kv::InMemoryKvNode::MultiWrite(batch, applied);
  }

  /// Releases the writes of `key`.
  void Release(const kv::Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    blocked_keys_.erase(key);
  }

  /// Releases every blocked key.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    blocked_keys_.clear();
  }

 private:
  bool Blocked(const kv::Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_keys_.contains(key);
  }

  std::mutex mu_;
  std::set<kv::Key> blocked_keys_;
};

}  // namespace txrep::testing

#endif  // TXREP_TESTS_TEST_UTIL_H_
