// Concurrent-writer sweep: 1..16 writer threads, sync WAL, plus a
// shard-scaling sweep (num_shards 1/2/4/8 at the widest thread count).
// Group commit batches concurrent writers into one WAL append + fsync per
// shard, so aggregate throughput should scale with threads; sharding
// multiplies the independent commit queues, so sync-WAL throughput should
// scale again with shard count.
// Emits a JSON document on stdout (alongside the figure benches' tables);
// progress goes to stderr. The scaling targets assume a multi-core host
// whose fsyncs do not serialize (a parallel file system, or per-file
// commit); the JSON records host_cpus so single-core / ext4-journal
// results are interpretable.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "lsm/db.h"
#include "vfs/posix_vfs.h"

namespace {

using namespace lsmio;

// Defaults measure a real workload; CI overrides them via the environment
// (LSMIO_BENCH_OPS / LSMIO_BENCH_VALUE_BYTES / LSMIO_BENCH_MAX_THREADS) to
// get a seconds-long smoke run that still exercises every code path.
long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed <= 0) {
    std::fprintf(stderr, "ignoring %s=%s (want a positive integer)\n", name, v);
    return fallback;
  }
  return parsed;
}

const int kTotalOps =
    static_cast<int>(EnvLong("LSMIO_BENCH_OPS", 1600));  // split across threads
const size_t kValueBytes =
    static_cast<size_t>(EnvLong("LSMIO_BENCH_VALUE_BYTES", 4 * KiB));
const int kMaxThreads = static_cast<int>(EnvLong("LSMIO_BENCH_MAX_THREADS", 16));
const bool kVerbose = std::getenv("LSMIO_BENCH_VERBOSE") != nullptr;

struct RunResult {
  int threads = 0;
  int num_shards = 1;
  double puts_per_sec = 0;
  double mib_per_sec = 0;
  uint64_t group_commit_batches = 0;
  uint64_t write_stall_micros = 0;
};

RunResult RunOnce(int threads, int num_shards, const std::string& dir) {
  lsm::Options options;
  options.sync_writes = true;  // every write group pays one fsync
  options.disable_compaction = true;
  // num_shards == 1 keeps the exact pre-sharding configuration; sharded
  // runs get one pool thread per shard so concurrent flushes never queue.
  options.background_threads = num_shards == 1 ? 2 : std::max(2, num_shards);
  options.num_shards = num_shards;
  options.max_write_buffer_number = 4;
  options.write_buffer_size = 8 * MiB;

  lsm::DB::Destroy(options, dir).IgnoreError();  // scratch-dir cleanup; Open surfaces real trouble
  std::unique_ptr<lsm::DB> db;
  auto s = lsm::DB::Open(options, dir, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", dir.c_str(), s.ToString().c_str());
    std::exit(1);
  }

  const int ops_per_thread = kTotalOps / threads;
  const std::string value(kValueBytes, 'w');
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> writers;
  writers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < ops_per_thread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + ".k" + std::to_string(i);
        const auto put = db->Put({}, key, value);
        if (!put.ok()) {
          std::fprintf(stderr, "put failed: %s\n", put.ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& w : writers) w.join();

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const lsm::DbStats stats = db->GetStats();

  RunResult r;
  r.threads = threads;
  r.num_shards = num_shards;
  const double total_ops = static_cast<double>(ops_per_thread) * threads;
  r.puts_per_sec = total_ops / seconds;
  r.mib_per_sec = total_ops * static_cast<double>(kValueBytes) /
                  static_cast<double>(MiB) / seconds;
  r.group_commit_batches = stats.group_commit_batches;
  r.write_stall_micros = stats.write_stall_micros;

  if (kVerbose && num_shards > 1) {
    std::vector<lsm::DbStats> per_shard;
    db->GetShardStats(&per_shard);
    for (size_t i = 0; i < per_shard.size(); ++i) {
      std::fprintf(stderr,
                   "    shard %zu: %llu batches, %llu flushes, "
                   "%llu stall us\n",
                   i,
                   static_cast<unsigned long long>(
                       per_shard[i].group_commit_batches),
                   static_cast<unsigned long long>(
                       per_shard[i].memtable_flushes),
                   static_cast<unsigned long long>(
                       per_shard[i].write_stall_micros));
    }
  }

  db.reset();
  lsm::DB::Destroy(options, dir).IgnoreError();  // scratch-dir cleanup; Open surfaces real trouble
  return r;
}

double At(const std::vector<RunResult>& results, int threads, int num_shards) {
  for (const RunResult& r : results) {
    if (r.threads == threads && r.num_shards == num_shards) {
      return r.puts_per_sec;
    }
  }
  return 0;
}

}  // namespace

int main() {
  const char* dir_env = std::getenv("LSMIO_BENCH_DIR");
  const std::string dir = (dir_env != nullptr && *dir_env != '\0')
                              ? std::string(dir_env) + "/lsmio_bench_concurrent_writers"
                              : "/tmp/lsmio_bench_concurrent_writers";
  std::vector<RunResult> results;

  for (const int threads : {1, 2, 4, 8, 16}) {
    if (threads > kMaxThreads) continue;
    std::fprintf(stderr, "%2d thread(s)... ", threads);
    std::fflush(stderr);
    results.push_back(RunOnce(threads, /*num_shards=*/1, dir));
    std::fprintf(stderr, "%8.0f puts/s (%6.1f MiB/s)\n",
                 results.back().puts_per_sec, results.back().mib_per_sec);
  }

  // Shard scaling at the widest writer count the sweep ran (>= 8 preferred:
  // below that there are not enough concurrent writers to keep 8 shards'
  // commit queues busy). num_shards == 1 re-measures the baseline in the
  // same pass so the scaling ratio is apples-to-apples.
  const int shard_threads = std::min(8, kMaxThreads);
  for (const int num_shards : {1, 2, 4, 8}) {
    std::fprintf(stderr, "%d shard(s)      %2d thread(s)... ", num_shards,
                 shard_threads);
    std::fflush(stderr);
    results.push_back(RunOnce(shard_threads, num_shards, dir));
    std::fprintf(stderr, "%8.0f puts/s (%6.1f MiB/s)\n",
                 results.back().puts_per_sec, results.back().mib_per_sec);
  }

  std::printf("{\n  \"bench\": \"concurrent_writers\",\n");
  std::printf("  \"sync_wal\": true,\n  \"value_bytes\": %zu,\n  \"total_ops\": %d,\n",
              kValueBytes, kTotalOps);
  std::printf("  \"host_cpus\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::printf("    {\"threads\": %d, \"num_shards\": %d, "
                "\"puts_per_sec\": %.1f, \"mib_per_sec\": %.2f, "
                "\"group_commit_batches\": %llu, \"write_stall_micros\": %llu}%s\n",
                r.threads, r.num_shards,
                r.puts_per_sec, r.mib_per_sec,
                static_cast<unsigned long long>(r.group_commit_batches),
                static_cast<unsigned long long>(r.write_stall_micros),
                i + 1 < results.size() ? "," : "");
  }
  const double shard_base = At(results, shard_threads, 1);
  const double shard_speedup_4 =
      shard_base > 0 ? At(results, shard_threads, 4) / shard_base : 0;
  const double shard_speedup_8 =
      shard_base > 0 ? At(results, shard_threads, 8) / shard_base : 0;
  std::printf("  ],\n");
  std::printf("  \"shard_scaling\": {\"threads\": %d, "
              "\"speedup_4_shards\": %.2f, \"speedup_8_shards\": %.2f}\n}\n",
              shard_threads, shard_speedup_4, shard_speedup_8);

  std::fprintf(stderr,
               "\nshard scaling at %d threads: 4 shards %.2fx, 8 shards %.2fx "
               "the single-shard path (target >= 1.5x at 4 shards)\n",
               shard_threads, shard_speedup_4, shard_speedup_8);
  return 0;
}
