#include "bench_math.h"

#include <gtest/gtest.h>

namespace lsmio_bench {
namespace {

TEST(PercentileTest, NearestRankUsesExactIntegerRanks) {
  EXPECT_EQ(NearestRank(0, 5000), 0u);
  EXPECT_EQ(NearestRank(1, 9999), 1u);
  EXPECT_EQ(NearestRank(100, 5000), 50u);
  EXPECT_EQ(NearestRank(101, 5000), 51u);
  // 0.999 * 10000 is 9990.000000000002 in floating point; the rank must not
  // round up to 9991.
  EXPECT_EQ(NearestRank(10000, 9990), 9990u);
  EXPECT_EQ(SamplesBeyond(10000, 9990), 10u);
}

TEST(PercentileTest, HighestSupportedNeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0u);
  EXPECT_EQ(HighestSupportedPercentile(19), 0u);      // 9 beyond the median
  EXPECT_EQ(HighestSupportedPercentile(20), 5000u);   // 10 beyond the median
  EXPECT_EQ(HighestSupportedPercentile(99), 5000u);   // 9 beyond p90
  EXPECT_EQ(HighestSupportedPercentile(100), 9000u);
  EXPECT_EQ(HighestSupportedPercentile(999), 9000u);  // 9 beyond p99
  EXPECT_EQ(HighestSupportedPercentile(1000), 9900u);
  EXPECT_EQ(HighestSupportedPercentile(9999), 9900u);
  EXPECT_EQ(HighestSupportedPercentile(10000), 9990u);
  EXPECT_EQ(HighestSupportedPercentile(100000), 9999u);
}

TEST(PercentileTest, PercentileSortedPicksNearestRank) {
  std::vector<uint32_t> sorted;
  for (uint32_t i = 1; i <= 1000; ++i) sorted.push_back(i);
  EXPECT_EQ(PercentileSorted(sorted, 5000), 500u);
  EXPECT_EQ(PercentileSorted(sorted, 9900), 990u);
  EXPECT_EQ(PercentileSorted(sorted, 9990), 999u);
  EXPECT_EQ(PercentileSorted(std::vector<uint32_t>{}, 5000), 0u);
}

TEST(LatencySeriesTest, MedianOfRoundsWhenEachRoundHasEnoughBeyond) {
  LatencySeries series;
  // Three rounds of 10000 samples, the middle one hit by a burst that slows
  // it 10x: the median of the per-round values ignores the burst.
  for (uint32_t scale : {1u, 10u, 2u}) {
    std::vector<uint32_t> round;
    for (uint32_t i = 1; i <= 10000; ++i) round.push_back(i * scale);
    series.AddRound(&round);
    EXPECT_TRUE(round.empty());
  }
  EXPECT_EQ(series.count(), 30000u);
  EXPECT_DOUBLE_EQ(series.Percentile(5000), 10000.0);  // rounds: 5000, 50000, 10000
  EXPECT_DOUBLE_EQ(series.Percentile(9900), 19800.0);  // 9900, 99000, 19800
  // p99.9 leaves exactly 10 samples beyond per round, still enough.
  EXPECT_DOUBLE_EQ(series.Percentile(9990), 19980.0);  // 9990, 99900, 19980
  // p99.99 leaves 1 per round: pooled over 30000, its nearest rank is the
  // fourth largest value, from the slow round.
  EXPECT_DOUBLE_EQ(series.Percentile(9999), 99970.0);
  EXPECT_DOUBLE_EQ(series.Percentile(1234), 0.0);  // not a reported percentile
}

TEST(LatencySeriesTest, PoolsWhenARoundIsTooSmall) {
  LatencySeries series;
  for (uint32_t offset : {0u, 16u}) {
    std::vector<uint32_t> round;
    for (uint32_t i = 1; i <= 16; ++i) round.push_back(offset + i);
    series.AddRound(&round);
  }
  // 8 samples beyond the median of each round: below kRoundBeyond.
  EXPECT_DOUBLE_EQ(series.Percentile(5000), 16.0);
  EXPECT_DOUBLE_EQ(LatencySeries().Percentile(5000), 0.0);
}

TEST(LatencySeriesTest, PoolIsABoundedUniformSample) {
  LatencySeries series(/*pool_capacity=*/1000);
  std::vector<uint32_t> round;
  for (uint32_t i = 1; i <= 100000; ++i) round.push_back(i);
  series.AddRound(&round);
  round.assign(5, 7);  // a tiny round forces the pooled path
  series.AddRound(&round);
  EXPECT_EQ(series.count(), 100005u);
  // A uniform sample of 1..100000 has its median near 50000 and its p90
  // near 90000.
  EXPECT_NEAR(series.Percentile(5000), 50000.0, 6000.0);
  EXPECT_NEAR(series.Percentile(9000), 90000.0, 4000.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(SelfTimeTest, SubtractsSequentialChildren) {
  // A flush span of 100 ns with two VFS appends of 10 and 20 ns.
  EXPECT_EQ(SelfTimeNs({100, 200}, {{110, 120}, {150, 170}}), 70u);
  EXPECT_EQ(SelfTimeNs({100, 200}, {}), 100u);
}

TEST(SelfTimeTest, CountsOverlapOnceAndClipsToParent) {
  // Overlapping children from two threads cover [120, 160) once.
  EXPECT_EQ(SelfTimeNs({100, 200}, {{120, 150}, {130, 160}}), 60u);
  // A child reaching outside the parent only counts its inside part.
  EXPECT_EQ(SelfTimeNs({100, 200}, {{50, 120}, {190, 250}}), 70u);
  // Children entirely outside, nested and adjacent.
  EXPECT_EQ(SelfTimeNs({100, 200}, {{0, 100}, {200, 300}}), 100u);
  EXPECT_EQ(SelfTimeNs({100, 200}, {{110, 190}, {120, 130}}), 20u);
  EXPECT_EQ(SelfTimeNs({100, 200}, {{110, 120}, {120, 130}}), 80u);
  EXPECT_EQ(SelfTimeNs({100, 200}, {{100, 200}}), 0u);
  EXPECT_EQ(SelfTimeNs({200, 100}, {{110, 120}}), 0u);
}

TEST(ClassifyPathTest, StoreFileNames) {
  EXPECT_EQ(ClassifyPath("/s/db/000012.sst"), FileClass::kTable);
  EXPECT_EQ(ClassifyPath("/s/db/000003.log"), FileClass::kWal);
  EXPECT_EQ(ClassifyPath("/s/db/MANIFEST-000002"), FileClass::kManifest);
  EXPECT_EQ(ClassifyPath("/s/db/000007.blob"), FileClass::kBlob);
  EXPECT_EQ(ClassifyPath("000012.sst"), FileClass::kTable);
  EXPECT_EQ(ClassifyPath("/s/db/shard-001/000012.sst"), FileClass::kTable);
}

TEST(ClassifyPathTest, EverythingElseIsOther) {
  EXPECT_EQ(ClassifyPath("/s/db/CURRENT"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/db/CURRENT.tmp"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/db/LOCK"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/db/SHARDS"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/db/MANIFEST-"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/db/MANIFEST-12x"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/db/.sst"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/db/x12.sst"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/db/000012.sst.tmp"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath("/s/000012.sst/CURRENT"), FileClass::kOther);
  EXPECT_EQ(ClassifyPath(""), FileClass::kOther);
}

}  // namespace
}  // namespace lsmio_bench
