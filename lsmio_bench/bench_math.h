// Arithmetic the benchmark reports with: percentile selection, medians, span
// self time and the classification of store files. Kept free of the library
// so tests/bench_math_test.cc can check it in isolation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

namespace lsmio_bench {

/// Percentiles a latency sample can be reported at, in hundredths of a
/// percent (9990 = p99.9) so rank arithmetic stays in integers.
inline constexpr uint32_t kPercentilesCenti[] = {5000, 9000, 9900, 9990, 9999};

/// 1-based nearest rank of the percentile `centi` (hundredths of a percent)
/// in a sample of n values; 0 for an empty sample.
inline uint64_t NearestRank(uint64_t n, uint32_t centi) {
  if (n == 0) return 0;
  const uint64_t rank = (n * centi + 9999) / 10000;
  return std::clamp<uint64_t>(rank, 1, n);
}

/// Samples strictly above the percentile's nearest rank.
inline uint64_t SamplesBeyond(uint64_t n, uint32_t centi) {
  return n - NearestRank(n, centi);
}

/// The highest percentile of kPercentilesCenti with at least ten samples
/// beyond it, or 0 when even the median has fewer.
inline uint32_t HighestSupportedPercentile(uint64_t n) {
  uint32_t best = 0;
  for (const uint32_t centi : kPercentilesCenti) {
    if (n > 0 && SamplesBeyond(n, centi) >= 10) best = centi;
  }
  return best;
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty sample.
template <typename T>
T PercentileSorted(const std::vector<T>& sorted, uint32_t centi) {
  if (sorted.empty()) return T{};
  return sorted[NearestRank(sorted.size(), centi) - 1];
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// Latency samples (ns) of one kind of operation over the rounds of a run.
/// Each round's percentiles are kept, and its samples join a pool that is a
/// uniform reservoir of at most pool_capacity values, so memory does not
/// grow with the length of the run.
class LatencySeries {
 public:
  /// Samples beyond a percentile that one round needs for its value of it to
  /// count: the same rule as HighestSupportedPercentile.
  static constexpr uint64_t kRoundBeyond = 10;

  explicit LatencySeries(size_t pool_capacity = 1 << 20) : pool_capacity_(pool_capacity) {}

  /// Adds one round's samples; sorts `samples`, then clears it (keeping its
  /// capacity for the next round).
  void AddRound(std::vector<uint32_t>* samples) {
    std::sort(samples->begin(), samples->end());
    RoundPercentiles round;
    round.count = samples->size();
    for (size_t i = 0; i < std::size(kPercentilesCenti); ++i) {
      round.values[i] = PercentileSorted(*samples, kPercentilesCenti[i]);
    }
    rounds_.push_back(round);
    for (const uint32_t v : *samples) {
      ++seen_;
      if (pool_.size() < pool_capacity_) {
        pool_.push_back(v);
        continue;
      }
      rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t slot = (rng_ >> 11) % seen_;
      if (slot < pool_capacity_) pool_[slot] = v;
    }
    samples->clear();
  }

  /// The percentile `centi` (one of kPercentilesCenti) in ns; 0 when empty.
  /// When every round has kRoundBeyond samples beyond it, this is the median
  /// of the rounds' values: interference on a shared machine comes in
  /// bursts, and a burst then moves only the rounds it hit instead of
  /// filling the pooled tail. Otherwise it is the pooled percentile.
  [[nodiscard]] double Percentile(uint32_t centi) const {
    size_t index = 0;
    while (index < std::size(kPercentilesCenti) && kPercentilesCenti[index] != centi) ++index;
    if (index == std::size(kPercentilesCenti) || seen_ == 0) return 0.0;
    std::vector<double> per_round;
    for (const RoundPercentiles& r : rounds_) {
      if (SamplesBeyond(r.count, centi) < kRoundBeyond) {
        per_round.clear();
        break;
      }
      per_round.push_back(r.values[index]);
    }
    if (!per_round.empty()) return Median(per_round);
    std::vector<uint32_t> sorted = pool_;
    std::sort(sorted.begin(), sorted.end());
    return PercentileSorted(sorted, centi);
  }

  /// Samples added over all rounds (the pool holds at most pool_capacity).
  [[nodiscard]] uint64_t count() const { return seen_; }

 private:
  struct RoundPercentiles {
    uint64_t count = 0;
    uint32_t values[std::size(kPercentilesCenti)] = {};
  };
  size_t pool_capacity_;
  std::vector<RoundPercentiles> rounds_;
  std::vector<uint32_t> pool_;
  uint64_t seen_ = 0;
  uint64_t rng_ = 0x853c49e6748fea9bULL;
};

/// Half-open time interval in nanoseconds.
struct Interval {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Self time of `parent`: its duration minus the part of it that the union
/// of `children` covers. Children are clipped to the parent and may overlap
/// one another (spans of concurrent threads), so overlap is counted once.
inline uint64_t SelfTimeNs(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.begin) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  uint64_t covered = 0;
  uint64_t run_begin = 0;
  uint64_t run_end = 0;
  bool in_run = false;
  for (const Interval& child : children) {
    const uint64_t begin = std::max(child.begin, parent.begin);
    const uint64_t end = std::min(child.end, parent.end);
    if (end <= begin) continue;
    if (in_run && begin <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (in_run) covered += run_end - run_begin;
    run_begin = begin;
    run_end = end;
    in_run = true;
  }
  if (in_run) covered += run_end - run_begin;
  return (parent.end - parent.begin) - covered;
}

/// The kinds of file an LSM store keeps, by on-disk name.
enum class FileClass : uint8_t { kTable, kWal, kManifest, kBlob, kOther };
inline constexpr int kNumFileClasses = 5;

/// Classifies a path by its last component: NNNNNN.sst is a table,
/// NNNNNN.log a WAL, NNNNNN.blob a value-log segment, MANIFEST-NNNNNN a
/// manifest; everything else (CURRENT, LOCK, SHARDS, temp files) is other.
inline FileClass ClassifyPath(std::string_view path) {
  const size_t slash = path.rfind('/');
  const std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const auto all_digits = [](std::string_view s) {
    return !s.empty() && std::all_of(s.begin(), s.end(),
                                     [](char c) { return c >= '0' && c <= '9'; });
  };
  constexpr std::string_view kManifest = "MANIFEST-";
  if (name.substr(0, kManifest.size()) == kManifest) {
    return all_digits(name.substr(kManifest.size())) ? FileClass::kManifest
                                                     : FileClass::kOther;
  }
  const size_t dot = name.find('.');
  if (dot == std::string_view::npos || !all_digits(name.substr(0, dot))) {
    return FileClass::kOther;
  }
  const std::string_view suffix = name.substr(dot);
  if (suffix == ".sst") return FileClass::kTable;
  if (suffix == ".log") return FileClass::kWal;
  if (suffix == ".blob") return FileClass::kBlob;
  return FileClass::kOther;
}

}  // namespace lsmio_bench
