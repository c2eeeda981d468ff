#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "lsm/filter_block.h"
#include "lsm/filter_policy.h"

namespace lsmio::lsm {
namespace {

class BloomTest : public ::testing::Test {
 protected:
  BloomTest() : policy_(NewBloomFilterPolicy(10)) {}

  void Build(const std::vector<std::string>& keys) {
    std::vector<Slice> slices(keys.begin(), keys.end());
    filter_.clear();
    policy_->CreateFilter(slices.data(), static_cast<int>(slices.size()), &filter_);
  }

  bool Matches(const Slice& key) const {
    return policy_->KeyMayMatch(key, Slice(filter_));
  }

  std::unique_ptr<const FilterPolicy> policy_;
  std::string filter_;
};

TEST_F(BloomTest, EmptyFilterMatchesNothing) {
  Build({});
  EXPECT_FALSE(Matches("hello"));
  EXPECT_FALSE(Matches(""));
}

TEST_F(BloomTest, AddedKeysAlwaysMatch) {
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("key" + std::to_string(i));
  Build(keys);
  for (const auto& key : keys) {
    EXPECT_TRUE(Matches(key)) << key;  // no false negatives, ever
  }
}

TEST_F(BloomTest, FalsePositiveRateIsBounded) {
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back("present" + std::to_string(i));
  Build(keys);

  int false_positives = 0;
  constexpr int kProbes = 10000;
  for (int i = 0; i < kProbes; ++i) {
    if (Matches("absent" + std::to_string(i))) ++false_positives;
  }
  // 10 bits/key gives ~1%; allow generous headroom.
  EXPECT_LT(false_positives, kProbes / 25) << "fp rate too high";
}

TEST_F(BloomTest, FilterSizeScalesWithKeys) {
  Build({"a"});
  const size_t small = filter_.size();
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(std::to_string(i));
  Build(keys);
  EXPECT_GT(filter_.size(), small);
  EXPECT_LE(filter_.size(), 10000 * 10 / 8 + 64);
}

TEST(FilterBlockTest, EmptyBuilderProducesValidBlock) {
  auto policy = std::unique_ptr<const FilterPolicy>(NewBloomFilterPolicy(10));
  FilterBlockBuilder builder(policy.get());
  const Slice block = builder.Finish();
  FilterBlockReader reader(policy.get(), block);
  // With no filters recorded, everything "may match" (no false negatives).
  EXPECT_TRUE(reader.KeyMayMatch(0, "foo"));
}

TEST(FilterBlockTest, SingleBlockFilter) {
  auto policy = std::unique_ptr<const FilterPolicy>(NewBloomFilterPolicy(10));
  FilterBlockBuilder builder(policy.get());
  builder.StartBlock(0);
  builder.AddKey("alpha");
  builder.AddKey("beta");
  const Slice block = builder.Finish();

  FilterBlockReader reader(policy.get(), block);
  EXPECT_TRUE(reader.KeyMayMatch(0, "alpha"));
  EXPECT_TRUE(reader.KeyMayMatch(0, "beta"));
  EXPECT_FALSE(reader.KeyMayMatch(0, "gamma-not-present-xyz"));
}

TEST(FilterBlockTest, MultipleBlockRanges) {
  auto policy = std::unique_ptr<const FilterPolicy>(NewBloomFilterPolicy(10));
  FilterBlockBuilder builder(policy.get());
  builder.StartBlock(0);
  builder.AddKey("block0-key");
  builder.StartBlock(3000);  // second 2 KiB range
  builder.AddKey("block1-key");
  builder.StartBlock(9000);  // later range, after a gap
  builder.AddKey("block2-key");
  const Slice block = builder.Finish();

  FilterBlockReader reader(policy.get(), block);
  EXPECT_TRUE(reader.KeyMayMatch(0, "block0-key"));
  EXPECT_TRUE(reader.KeyMayMatch(3000, "block1-key"));
  EXPECT_TRUE(reader.KeyMayMatch(9000, "block2-key"));

  EXPECT_FALSE(reader.KeyMayMatch(0, "block1-key"));
  EXPECT_FALSE(reader.KeyMayMatch(3000, "block0-key"));
  // Empty gap range matches nothing.
  EXPECT_FALSE(reader.KeyMayMatch(5000, "block0-key"));
}

TEST(FilterBlockTest, MalformedContentsFailOpen) {
  auto policy = std::unique_ptr<const FilterPolicy>(NewBloomFilterPolicy(10));
  FilterBlockReader reader(policy.get(), Slice("xx", 2));
  // Broken filter must not produce false negatives: fail open.
  EXPECT_TRUE(reader.KeyMayMatch(0, "anything"));

  // A base_lg of 64 or more would be an undefined shift.
  FilterBlockBuilder builder(policy.get());
  builder.StartBlock(0);
  builder.AddKey("present");
  const std::string valid = builder.Finish();
  ASSERT_FALSE(FilterBlockReader(policy.get(), valid).KeyMayMatch(0, "absent"));
  for (const unsigned char base_lg : {64, 200}) {
    std::string contents = valid;
    contents.back() = static_cast<char>(base_lg);
    FilterBlockReader bad(policy.get(), contents);
    for (const uint64_t offset : {0, 1 << 20}) {
      EXPECT_TRUE(bad.KeyMayMatch(offset, "absent"))
          << "base_lg=" << int{base_lg} << " offset=" << offset;
    }
  }
}

}  // namespace
}  // namespace lsmio::lsm
