// Property-based engine validation: a randomized op stream applied both to
// the DB and to an in-memory reference model must agree, across the option
// matrix of the paper's knobs (WAL, compression, cache, compaction, sync).
// LSMIO_PROPERTY_SEEDS=N runs the op stream on N consecutive seeds
// (default 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "lsm/db.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

struct EngineConfig {
  bool disable_wal;
  bool compress;
  bool disable_cache;
  bool disable_compaction;
  bool sync_writes;
  bool use_mmap;
};

std::string PrintConfig(const ::testing::TestParamInfo<EngineConfig>& info) {
  const EngineConfig& c = info.param;
  std::string name;
  name += c.disable_wal ? "NoWal" : "Wal";
  name += c.compress ? "Lz" : "Raw";
  name += c.disable_cache ? "NoCache" : "Cache";
  name += c.disable_compaction ? "NoCompact" : "Compact";
  name += c.sync_writes ? "Sync" : "Async";
  name += c.use_mmap ? "Mmap" : "Pread";
  return name;
}

// Whether a lookup of `key` answered as the model says: its value, or
// NotFound for a key the model does not hold.
::testing::AssertionResult MatchesModel(const std::map<std::string, std::string>& model,
                                        const std::string& key, const Status& s,
                                        const std::string& value) {
  const auto it = model.find(key);
  if (it == model.end()) {
    if (s.IsNotFound()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << key << ": want NotFound, got " << s.ToString();
  }
  if (!s.ok()) return ::testing::AssertionFailure() << key << ": " << s.ToString();
  if (value != it->second) return ::testing::AssertionFailure() << key << ": wrong value";
  return ::testing::AssertionSuccess();
}

// MultiGet of `keys` at the latest sequence, each answer checked against
// the model.
void ExpectMultiGetMatchesModel(DB* db, const std::map<std::string, std::string>& model,
                                const std::vector<std::string>& keys) {
  const std::vector<Slice> slices(keys.begin(), keys.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db->MultiGet({}, slices, &values, &statuses).ok());
  ASSERT_EQ(statuses.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(MatchesModel(model, keys[i], statuses[i], values[i])) << "batch index " << i;
  }
}

class DbPropertyTest : public ::testing::TestWithParam<EngineConfig> {
 protected:
  Options MakeOptions() {
    const EngineConfig& c = GetParam();
    Options options;
    options.vfs = &fs_;
    options.write_buffer_size = 16 * KiB;  // force flushes during the run
    options.disable_wal = c.disable_wal;
    options.compression = c.compress ? CompressionType::kLzLite : CompressionType::kNone;
    options.disable_cache = c.disable_cache;
    options.disable_compaction = c.disable_compaction;
    options.sync_writes = c.sync_writes;
    options.use_mmap = c.use_mmap;
    options.l0_compaction_trigger = 3;
    // Compaction outputs roll, and L1 overflows into L2.
    options.target_file_size = 4 * KiB;
    options.max_bytes_for_level_base = 16 * KiB;
    return options;
  }

  void RunRandomOps(uint64_t seed);

  vfs::MemVfs fs_;
};

// Runs a random op stream from `seed` against a fresh store and the model.
// A snapshot, re-taken every 200 ops, keeps older versions alive through
// the compactions, so a key's versions span rolled outputs.
void DbPropertyTest::RunRandomOps(uint64_t seed) {
  const std::string dbname = "/db" + std::to_string(seed);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), dbname, &db).ok());

  std::map<std::string, std::string> model;
  Rng rng(seed);
  const Snapshot* snapshot = nullptr;

  constexpr int kOps = 3000;
  for (int op = 0; op < kOps; ++op) {
    if (op % 200 == 0) {
      if (snapshot != nullptr) db->ReleaseSnapshot(snapshot);
      snapshot = db->GetSnapshot();
    }
    const uint64_t dice = rng.Uniform(100);
    const std::string key = "key" + std::to_string(rng.Uniform(150));
    if (dice < 55) {
      std::string value(rng.Uniform(300) + 1, '\0');
      rng.Fill(value.data(), value.size());
      model[key] = value;
      ASSERT_TRUE(db->Put({}, key, value).ok());
    } else if (dice < 75) {
      model.erase(key);
      ASSERT_TRUE(db->Delete({}, key).ok());
    } else if (dice < 85) {
      std::string value;
      const Status s = db->Get({}, key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << "op " << op << " key " << key;
      } else {
        ASSERT_TRUE(s.ok()) << "op " << op << ": " << s.ToString();
        ASSERT_EQ(value, it->second) << "op " << op;
      }
    } else if (dice < 95) {
      // A random batch over twice the written key range, so some keys were
      // never written, with at least one duplicate.
      std::vector<std::string> keys(rng.Uniform(16) + 1);
      for (auto& k : keys) k = "key" + std::to_string(rng.Uniform(300));
      keys.push_back(keys[rng.Uniform(keys.size())]);
      SCOPED_TRACE("op " + std::to_string(op));
      ExpectMultiGetMatchesModel(db.get(), model, keys);
      if (HasFailure()) return;
    } else {
      ASSERT_TRUE(db->FlushMemTable(/*wait=*/rng.Bernoulli(0.5)).ok());
    }
  }
  db->ReleaseSnapshot(snapshot);

  // Final full comparison via iterator.
  std::unique_ptr<Iterator> iter(db->NewIterator({}));
  auto expected = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, model.end()) << "extra key " << iter->key().ToString();
    EXPECT_EQ(iter->key().ToString(), expected->first);
    EXPECT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
  ASSERT_TRUE(iter->status().ok());
  iter.reset();
  db.reset();
  ASSERT_TRUE(DB::Destroy(MakeOptions(), dbname).ok());
}

TEST_P(DbPropertyTest, RandomOpsMatchReferenceModel) {
  const char* env = std::getenv("LSMIO_PROPERTY_SEEDS");
  const int seeds = env != nullptr ? std::max(1, std::atoi(env)) : 1;
  for (int i = 0; i < seeds && !HasFailure(); ++i) {
    const uint64_t seed = 20260707 + i;
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunRandomOps(seed);
  }
}

TEST_P(DbPropertyTest, ReopenPreservesBarrieredState) {
  std::map<std::string, std::string> model;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
    Rng rng(42);
    for (int i = 0; i < 500; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(100));
      std::string value(rng.Uniform(200) + 1, '\0');
      rng.Fill(value.data(), value.size());
      model[key] = value;
      ASSERT_TRUE(db->Put({}, key, value).ok());
    }
    // Barrier makes everything durable regardless of WAL setting.
    ASSERT_TRUE(db->FlushMemTable(true).ok());
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(db->Get({}, key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
  }

  // The restore read-back: every key in one MultiGet, with never-written
  // keys and a duplicate mixed in.
  std::vector<std::string> keys;
  for (int i = 0; i < 120; ++i) keys.push_back("k" + std::to_string(i));
  keys.push_back(keys.front());
  ExpectMultiGetMatchesModel(db.get(), model, keys);
}

INSTANTIATE_TEST_SUITE_P(
    OptionMatrix, DbPropertyTest,
    ::testing::Values(
        // The paper's checkpoint configuration.
        EngineConfig{true, false, true, true, false, false},
        // Default durable configuration.
        EngineConfig{false, false, false, false, false, false},
        // Compression on, compaction on, synced.
        EngineConfig{false, true, false, false, true, false},
        // WAL off but compaction on.
        EngineConfig{true, false, false, false, false, true},
        // Everything on.
        EngineConfig{false, true, false, false, false, true},
        // Cache off, compression on, no compaction.
        EngineConfig{false, true, true, true, false, false}),
    PrintConfig);

}  // namespace
}  // namespace lsmio::lsm
