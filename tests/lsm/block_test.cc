#include "lsm/block.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/coding.h"
#include "common/random.h"
#include "lsm/block_builder.h"
#include "lsm/comparator.h"

namespace lsmio::lsm {
namespace {

std::unique_ptr<Block> BuildBlock(const std::map<std::string, std::string>& entries,
                                  int restart_interval = 16) {
  Options options;
  options.block_restart_interval = restart_interval;
  BlockBuilder builder(&options);
  for (const auto& [k, v] : entries) builder.Add(k, v);
  const Slice contents = builder.Finish();
  return std::make_unique<Block>(contents.ToString());
}

TEST(BlockTest, EmptyBlockIteratorIsInvalid) {
  auto block = BuildBlock({});
  std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST(BlockTest, ForwardScanYieldsAllEntries) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; ++i) {
    entries["key" + std::to_string(1000 + i)] = "value" + std::to_string(i);
  }
  auto block = BuildBlock(entries);
  std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(iter->key().ToString(), expected->first);
    EXPECT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
}

TEST(BlockTest, BackwardScan) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 50; ++i) entries["k" + std::to_string(100 + i)] = "v";
  auto block = BuildBlock(entries);
  std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));
  auto expected = entries.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++expected) {
    ASSERT_NE(expected, entries.rend());
    EXPECT_EQ(iter->key().ToString(), expected->first);
  }
  EXPECT_EQ(expected, entries.rend());
}

TEST(BlockTest, SeekLandsOnLowerBound) {
  auto block = BuildBlock({{"b", "1"}, {"d", "2"}, {"f", "3"}});
  std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));

  iter->Seek("a");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "b");

  iter->Seek("d");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "d");

  iter->Seek("e");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "f");

  iter->Seek("g");
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, PrefixCompressionPreservesKeys) {
  // Long shared prefixes stress the shared/non-shared split.
  std::map<std::string, std::string> entries;
  const std::string prefix(100, 'p');
  for (int i = 0; i < 64; ++i) {
    entries[prefix + std::to_string(1000 + i)] = std::to_string(i);
  }
  for (const int restart : {1, 2, 16, 64}) {
    auto block = BuildBlock(entries, restart);
    std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));
    auto expected = entries.begin();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
      EXPECT_EQ(iter->key().ToString(), expected->first) << "restart=" << restart;
    }
  }
}

TEST(BlockTest, SeekEveryKeyWithVariousRestartIntervals) {
  std::map<std::string, std::string> entries;
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    std::string key(1 + rng.Uniform(30), '\0');
    rng.Fill(key.data(), key.size());
    entries[key] = std::to_string(i);
  }
  for (const int restart : {1, 7, 16}) {
    auto block = BuildBlock(entries, restart);
    std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));
    for (const auto& [k, v] : entries) {
      iter->Seek(k);
      ASSERT_TRUE(iter->Valid()) << "restart=" << restart;
      EXPECT_EQ(iter->key().ToString(), k);
      EXPECT_EQ(iter->value().ToString(), v);
    }
  }
}

TEST(BlockTest, MalformedBlockYieldsErrorIterator) {
  // One entry with shared 0, non_shared 0xFFFFFFFF and value_length 1: the
  // two lengths sum to 0 in 32 bits, then restart[0] = 0 and one restart.
  std::string wrapping_lengths("\x00\xff\xff\xff\xff\x0f\x01", 7);
  PutFixed32(&wrapping_lengths, 0);
  PutFixed32(&wrapping_lengths, 1);
  const std::string inputs[] = {
      std::string("xx", 2),  // too short for the restart count
      wrapping_lengths,
  };
  for (const std::string& contents : inputs) {
    Block block(contents);
    std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
    iter->SeekToFirst();
    EXPECT_FALSE(iter->Valid()) << contents.size() << "-byte block";
    EXPECT_TRUE(iter->status().IsCorruption()) << contents.size() << "-byte block";
    iter.reset(block.NewIterator(BytewiseComparator()));
    iter->Seek("k");
    EXPECT_FALSE(iter->Valid()) << contents.size() << "-byte block";
    EXPECT_TRUE(iter->status().IsCorruption()) << contents.size() << "-byte block";
  }
}

TEST(BlockBuilderTest, ResetAllowsReuse) {
  Options options;
  BlockBuilder builder(&options);
  builder.Add("a", "1");
  builder.Finish();
  builder.Reset();
  EXPECT_TRUE(builder.empty());
  builder.Add("b", "2");
  const Slice contents = builder.Finish();
  Block block(contents.ToString());
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "b");
}

TEST(BlockBuilderTest, SizeEstimateIsReasonable) {
  Options options;
  BlockBuilder builder(&options);
  const size_t empty_size = builder.CurrentSizeEstimate();
  builder.Add("key", std::string(1000, 'v'));
  EXPECT_GE(builder.CurrentSizeEstimate(), empty_size + 1000);
  const Slice contents = builder.Finish();
  EXPECT_EQ(contents.size(), builder.CurrentSizeEstimate());
}

}  // namespace
}  // namespace lsmio::lsm
