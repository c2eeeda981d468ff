// End-to-end benchmark of the paper's checkpoint path on a real clock: puts
// through Manager::Put, a sync write barrier, a restart and a GetBatch
// restore, plus the secondary update mode with WAL, compaction and cache.
//
//   lsmio_bench --workload ckpt_64k|ckpt_small|kv_update --seed N
//               --seconds S --trace 0|1 --scratch DIR --out FILE [--spans FILE]
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from outside the library
// by timing calls into Manager, by a timing Vfs decorator and by differencing
// Manager::engine_stats() around each phase. Every value read back is checked
// against the seeded generator; any mismatch or non-OK status makes the run
// fail (exit 1).
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/crc32c.h"
#include "core/manager.h"
#include "iorsim/iorsim.h"
#include "timing_vfs.h"
#include "vfs/posix_vfs.h"

#ifndef LSMIO_BENCH_BUILD_TYPE
#define LSMIO_BENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LSMIO_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LSMIO_BENCH_SANITIZED 1
#endif
#endif
#ifndef LSMIO_BENCH_SANITIZED
#define LSMIO_BENCH_SANITIZED 0
#endif

namespace lsmio_bench {
namespace {

using lsmio::BarrierMode;
using lsmio::LsmioOptions;
using lsmio::Manager;
using lsmio::Slice;
using lsmio::Status;
using lsmio::lsm::DbStats;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;
constexpr size_t kKeyLen = 20;
constexpr size_t kBatchKeys = 64;
constexpr size_t kPoolBytes = 4 << 20;
constexpr size_t kMaxSpansPerName = 50'000;
constexpr size_t kMaxErrorMessages = 5;

// Why each workload exists (the layer it stresses) is recorded in
// BENCHMARK.json; the sizes are chosen so a checkpoint round takes one to
// two seconds.
struct WorkloadSpec {
  const char* name;
  size_t value_len;
  uint64_t keys;        // keys put per checkpoint round, or the update key space
  uint64_t point_gets;  // verified point Gets after each checkpoint restore
  int restore_passes;   // reopen + full restore passes per round
  bool update_mode;
};

constexpr WorkloadSpec kWorkloads[] = {
    // 512 MiB per round: 16 memtable flushes, so the flush ceiling shows.
    // One point Get per key, and eight restore passes of 127 timed batches,
    // so each round's get and getbatch p99 have at least ten samples beyond.
    {"ckpt_64k", 64 * 1024, 8192, 8192, 8, false},
    // ~120 MB of 100 B values with 20 B keys: the per-put CPU path.
    {"ckpt_small", 100, 1'000'000, 16384, 1, false},
    // 256 MiB key space, 8x the 32 MiB memtable, overwritten at random. A
    // restore takes only ~0.2 s, so each round restores several times.
    {"kv_update", 4096, 65536, 0, 3, true},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string out;
  std::string spans;
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint32_t SaturateNs(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Seeded value generator: a random pool, and each (key, version) maps to a
/// slice of it at a seeded offset. Values are views, so putting one costs
/// the store nothing extra and a restore can be checked byte for byte.
class Payload {
 public:
  Payload(uint64_t seed, size_t max_value) : seed_(seed), pool_(kPoolBytes + max_value, '\0') {
    for (size_t i = 0; i + 8 <= pool_.size(); i += 8) {
      const uint64_t word = Mix(seed ^ i);
      std::memcpy(pool_.data() + i, &word, 8);
    }
  }
  [[nodiscard]] Slice Value(uint64_t key, uint64_t version, size_t len) const {
    const uint64_t span = pool_.size() - len + 1;
    const uint64_t offset = Mix(seed_ ^ Mix(key * 0x100000001b3ULL + version)) % span;
    return Slice(pool_.data() + offset, len);
  }

 private:
  uint64_t seed_;
  std::string pool_;
};

/// Fixed-width keys "ssss/kindNNNNNNNNNNNN" in one buffer; index order is
/// key order.
class KeySet {
 public:
  KeySet(uint64_t seed, const char* kind, uint64_t n) : buf_(n * kKeyLen, '\0') {
    char tmp[64];
    const unsigned prefix = static_cast<unsigned>(Mix(seed) & 0xffff);
    for (uint64_t i = 0; i < n; ++i) {
      std::snprintf(tmp, sizeof tmp, "%04x/%s%012" PRIu64, prefix, kind, i);
      std::memcpy(buf_.data() + i * kKeyLen, tmp, kKeyLen);
    }
  }
  [[nodiscard]] Slice Key(uint64_t i) const { return Slice(buf_.data() + i * kKeyLen, kKeyLen); }

 private:
  std::string buf_;
};

bool SameBytes(const std::string& got, const Slice& want) {
  return got.size() == want.size() && std::memcmp(got.data(), want.data(), want.size()) == 0;
}

/// The DbStats counters the benchmark differences.
struct LsmDelta {
  uint64_t flushes = 0, bytes_flushed = 0, compactions = 0;
  uint64_t stall_memtable_us = 0, stall_l0_us = 0, slowdown_delay_us = 0;
  uint64_t compaction_read = 0, compaction_written = 0;
  uint64_t group_batches = 0, group_writers = 0;
  uint64_t cache_hits = 0, cache_misses = 0, bloom_checked = 0, bloom_useful = 0;
  uint64_t coalesced_reads = 0;

  LsmDelta& operator+=(const LsmDelta& o) {
    flushes += o.flushes;
    bytes_flushed += o.bytes_flushed;
    compactions += o.compactions;
    stall_memtable_us += o.stall_memtable_us;
    stall_l0_us += o.stall_l0_us;
    slowdown_delay_us += o.slowdown_delay_us;
    compaction_read += o.compaction_read;
    compaction_written += o.compaction_written;
    group_batches += o.group_batches;
    group_writers += o.group_writers;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    bloom_checked += o.bloom_checked;
    bloom_useful += o.bloom_useful;
    coalesced_reads += o.coalesced_reads;
    return *this;
  }
};

LsmDelta Diff(const DbStats& now, const DbStats& before) {
  LsmDelta d;
  d.flushes = now.memtable_flushes - before.memtable_flushes;
  d.bytes_flushed = now.bytes_flushed - before.bytes_flushed;
  d.compactions = now.compactions - before.compactions;
  d.stall_memtable_us = now.stall_memtable_micros - before.stall_memtable_micros;
  d.stall_l0_us = now.stall_l0_micros - before.stall_l0_micros;
  d.slowdown_delay_us = now.slowdown_delay_micros - before.slowdown_delay_micros;
  d.compaction_read = now.compaction_bytes_read - before.compaction_bytes_read;
  d.compaction_written = now.compaction_bytes_written - before.compaction_bytes_written;
  d.group_batches = now.group_commit_batches - before.group_commit_batches;
  d.group_writers = now.group_commit_writers - before.group_commit_writers;
  d.cache_hits = now.block_cache_hits - before.block_cache_hits;
  d.cache_misses = now.block_cache_misses - before.block_cache_misses;
  d.bloom_checked = now.bloom_checked - before.bloom_checked;
  d.bloom_useful = now.bloom_useful - before.bloom_useful;
  d.coalesced_reads = now.multiget_coalesced_reads - before.multiget_coalesced_reads;
  return d;
}

struct RoundResult {
  bool traced = false;
  double setup_s = 0, put_loop_s = 0, barrier_s = 0, ingest_s = 0, restore_s = 0;
  uint64_t user_bytes = 0;     // key + value bytes put in the ingest phase
  uint64_t restore_bytes = 0;  // value bytes returned by the restore passes
  std::vector<double> pass_restore_mib_s;
  uint64_t cpu_ns = 0;         // process CPU over put loop + barrier
  LsmDelta write_side;         // ingest phase
  LsmDelta read_side;          // ingest phase reads + the reopened store
  VfsStats vfs_ingest, vfs_restore;

  [[nodiscard]] double ingest_mib_s() const { return user_bytes / kMiB / ingest_s; }
  [[nodiscard]] double restore_mib_s() const { return restore_bytes / kMiB / restore_s; }
};

/// Operation outcomes and latency samples (ns) of one thread or one run:
/// the vectors hold the current round's samples until EndRound().
struct OpLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<uint32_t> put_ns, get_ns, getbatch_ns;
  LatencySeries put, get, getbatch;

  /// Counts one operation; on failure records "what #index: status" (or a
  /// value mismatch when the status was OK).
  void Check(bool ok, const char* what, uint64_t index, const Status& s) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < kMaxErrorMessages) {
      errors.push_back(std::string(what) + " #" + std::to_string(index) + ": " +
                       (s.ok() ? std::string("value mismatch") : s.ToString()));
    }
  }
  /// Takes another thread's outcomes and current-round samples.
  void Merge(OpLog&& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (std::string& e : o.errors) {
      if (errors.size() < kMaxErrorMessages) errors.push_back(std::move(e));
    }
    put_ns.insert(put_ns.end(), o.put_ns.begin(), o.put_ns.end());
    get_ns.insert(get_ns.end(), o.get_ns.begin(), o.get_ns.end());
    getbatch_ns.insert(getbatch_ns.end(), o.getbatch_ns.begin(), o.getbatch_ns.end());
  }
  void EndRound() {
    put.AddRound(&put_ns);
    get.AddRound(&get_ns);
    getbatch.AddRound(&getbatch_ns);
  }
};

struct Run {
  std::vector<RoundResult> rounds;
  OpLog untraced;  // latencies of untraced rounds: the end-to-end sample
  OpLog traced;    // latencies of traced rounds: the per-layer sample
  double put_overhead_ns = 0;
  double fresh_put_ns = 0;
  double crc32c_gib_s = 0;
};

struct Env {
  const WorkloadSpec& spec;
  uint64_t seed;
  std::string store_dir;
  TimingVfs& vfs;
  Tracer* tracer;  // null unless --trace 1
};

LsmioOptions OptionsFor(const WorkloadSpec& spec, TimingVfs& vfs) {
  LsmioOptions options;  // defaults are the paper's checkpoint configuration
  options.vfs = &vfs;
  if (spec.update_mode) {
    options.disable_wal = false;  // appended, not synced: sync_writes stays off
    options.disable_compaction = false;
    options.disable_cache = false;
  }
  return options;
}

void RecreateDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Waits until no flush or compaction is queued or running (three quiet
/// polls in a row), so every update round starts from a settled tree.
void WaitForQuiescence(Manager& m) {
  int quiet = 0;
  const uint64_t deadline = NowNs() + 60'000'000'000ULL;
  while (quiet < 3 && NowNs() < deadline) {
    const DbStats s = m.engine_stats();
    quiet = (s.flush_queue_depth == 0 && s.compaction_queue_depth == 0) ? quiet + 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Writes back every file of the closed store (untimed), so that a restore
/// does not run beside the kernel's write-back of what was put before it.
void SyncStoreFiles(const std::string& dir) {
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    fsync(fd);
    close(fd);
  }
}

/// One restore pass: reopens the store and restores every key through
/// GetBatch in key order, checking each value against `expected`. Leaves the
/// store open in *m (null when the reopen failed).
template <typename Expected>
void RestorePass(const Env& env, const KeySet& keys, uint64_t n, Expected& expected,
                 OpLog* log, RoundResult* r, std::unique_ptr<Manager>* m) {
  Tracer* tracer = r->traced ? env.tracer : nullptr;
  const VfsStats before = env.vfs.Snapshot();
  const uint64_t open_begin = NowNs();
  Status s = Manager::Open(OptionsFor(env.spec, env.vfs), env.store_dir, m);
  uint64_t restore_ns = NowNs() - open_begin;
  log->Check(s.ok(), "reopen", 0, s);
  if (!s.ok()) {
    m->reset();
    return;
  }
  const uint64_t bytes_before = r->restore_bytes;
  std::vector<Slice> batch;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  for (uint64_t first = 0; first < n; first += kBatchKeys) {
    const uint64_t last = std::min<uint64_t>(first + kBatchKeys, n);
    batch.clear();
    for (uint64_t i = first; i < last; ++i) batch.push_back(keys.Key(i));
    const uint64_t begin = NowNs();
    s = (*m)->GetBatch(batch, &values, &statuses);
    const uint64_t end = NowNs();
    restore_ns += end - begin;
    // The first batch after the reopen also opens the tables; it is charged
    // to restore_mib_s but kept out of the latency sample, where one such
    // batch per round would sit right at p99 and make it swing with the
    // number of rounds.
    if (first > 0) log->getbatch_ns.push_back(SaturateNs(end - begin));
    if (tracer != nullptr) tracer->Record("get_batch", begin, end);
    if (!s.ok()) {
      for (uint64_t i = first; i < last; ++i) log->Check(false, "get_batch", i, s);
      continue;
    }
    for (uint64_t i = first; i < last; ++i) {
      const size_t j = i - first;
      const bool ok = statuses[j].ok() && SameBytes(values[j], expected(i));
      log->Check(ok, "restore key", i, statuses[j]);
      if (ok) r->restore_bytes += values[j].size();
    }
  }
  r->vfs_restore += env.vfs.Snapshot().Since(before);
  const double pass_s = static_cast<double>(restore_ns) / 1e9;
  r->restore_s += pass_s;
  r->pass_restore_mib_s.push_back(static_cast<double>(r->restore_bytes - bytes_before) / kMiB /
                                  pass_s);
  // The key count: every key 0..n-1 was found above, and the next key,
  // never put, must be absent.
  std::string absent;
  s = (*m)->Get(keys.Key(n), &absent);
  log->Check(s.IsNotFound(), "key never put (expected NotFound)", n, s);
}

/// Restores the closed store spec.restore_passes times (see RestorePass).
/// Leaves the store of the last pass open in *m and adds the read-side
/// engine counters of the earlier passes to r->read_side.
template <typename Expected>
void Restore(const Env& env, const KeySet& keys, uint64_t n, Expected&& expected,
             OpLog* log, RoundResult* r, std::unique_ptr<Manager>* m) {
  for (int pass = 0; pass < env.spec.restore_passes; ++pass) {
    if (*m != nullptr) {
      r->read_side += Diff((*m)->engine_stats(), DbStats{});
      m->reset();
    }
    RestorePass(env, keys, n, expected, log, r, m);
    if (*m == nullptr) return;
  }
}

/// One checkpoint round: set up, put every key, sync barrier, close; reopen,
/// restore, verified point Gets; remove the store.
RoundResult CheckpointRound(const Env& env, uint64_t round, bool traced, OpLog* log) {
  const WorkloadSpec& w = env.spec;
  RoundResult r;
  r.traced = traced;
  Tracer* tracer = traced ? env.tracer : nullptr;
  env.vfs.set_tracer(tracer);

  const uint64_t setup_begin = NowNs();
  RecreateDir(env.store_dir);
  const uint64_t round_seed = Mix(env.seed * 1000003 + round);
  const Payload payload(round_seed, w.value_len);
  const KeySet keys(round_seed, "var", w.keys + 1);  // +1: the absent probe
  std::unique_ptr<Manager> m;
  Status s = Manager::Open(OptionsFor(w, env.vfs), env.store_dir, &m);
  r.setup_s = static_cast<double>(NowNs() - setup_begin) / 1e9;
  log->Check(s.ok(), "open", round, s);
  if (!s.ok()) return r;

  const DbStats stats0 = m->engine_stats();
  const VfsStats vfs0 = env.vfs.Snapshot();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  for (uint64_t i = 0; i < w.keys; ++i) {
    const Slice key = keys.Key(i);
    const Slice value = payload.Value(i, 0, w.value_len);
    const uint64_t begin = NowNs();
    s = m->Put(key, value);
    const uint64_t end = NowNs();
    log->put_ns.push_back(SaturateNs(end - begin));
    if (tracer != nullptr) tracer->Record("put", begin, end);
    log->Check(s.ok(), "put", i, s);
    r.user_bytes += key.size() + value.size();
  }
  const uint64_t t1 = NowNs();
  s = m->WriteBarrier(BarrierMode::kSync);
  const uint64_t t2 = NowNs();
  if (tracer != nullptr) tracer->Record("write_barrier", t1, t2);
  log->Check(s.ok(), "write barrier", round, s);
  r.cpu_ns = ProcessCpuNs() - cpu0;
  r.put_loop_s = static_cast<double>(t1 - t0) / 1e9;
  r.barrier_s = static_cast<double>(t2 - t1) / 1e9;
  r.ingest_s = static_cast<double>(t2 - t0) / 1e9;
  r.write_side = Diff(m->engine_stats(), stats0);
  r.vfs_ingest = env.vfs.Snapshot().Since(vfs0);
  r.read_side = r.write_side;
  m.reset();

  Restore(env, keys, w.keys,
          [&](uint64_t i) { return payload.Value(i, 0, w.value_len); }, log, &r, &m);
  if (m != nullptr) {
    std::mt19937_64 rng(round_seed);
    std::string value;
    for (uint64_t j = 0; j < w.point_gets; ++j) {
      const uint64_t i = rng() % w.keys;
      const uint64_t begin = NowNs();
      s = m->Get(keys.Key(i), &value);
      const uint64_t end = NowNs();
      log->get_ns.push_back(SaturateNs(end - begin));
      if (tracer != nullptr) tracer->Record("get", begin, end);
      log->Check(s.ok() && SameBytes(value, payload.Value(i, 0, w.value_len)),
                 "point get", i, s);
    }
    r.read_side += Diff(m->engine_stats(), DbStats{});
    m.reset();
  }
  std::filesystem::remove_all(env.store_dir);
  log->EndRound();
  return r;
}

/// One update round: set up and prefill (charged to set-up), then two
/// writers overwrite random keys while one reader does verified point Gets,
/// all closed loop, for `phase_s`; a sync barrier ends the phase. The store
/// is then reopened and every key's latest version restored and checked.
RoundResult UpdateRound(const Env& env, uint64_t round, bool traced, double phase_s,
                        OpLog* log) {
  const WorkloadSpec& w = env.spec;
  const uint64_t n = w.keys;
  RoundResult r;
  r.traced = traced;
  Tracer* tracer = traced ? env.tracer : nullptr;
  env.vfs.set_tracer(tracer);

  const uint64_t setup_begin = NowNs();
  RecreateDir(env.store_dir);
  const uint64_t round_seed = Mix(env.seed * 1000003 + round);
  const Payload payload(round_seed, w.value_len);
  const KeySet keys(round_seed, "key", n + 1);
  std::unique_ptr<Manager> m;
  Status s = Manager::Open(OptionsFor(w, env.vfs), env.store_dir, &m);
  log->Check(s.ok(), "open", round, s);
  if (!s.ok()) return r;
  for (uint64_t k = 0; k < n; ++k) {
    s = m->Put(keys.Key(k), payload.Value(k, 0, w.value_len));
    log->Check(s.ok(), "prefill put", k, s);
  }
  s = m->WriteBarrier(BarrierMode::kSync);
  log->Check(s.ok(), "prefill barrier", round, s);
  WaitForQuiescence(*m);
  r.setup_s = static_cast<double>(NowNs() - setup_begin) / 1e9;

  std::vector<std::atomic<uint32_t>> versions(n);
  std::atomic<bool> stop{false};
  OpLog thread_logs[3];
  uint64_t thread_bytes[2] = {0, 0};
  auto writer = [&](int id) {
    OpLog& tl = thread_logs[id];
    std::mt19937_64 rng(Mix(round_seed + 17 + id));
    const uint64_t half = n / 2;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t k = 2 * (rng() % half) + static_cast<uint64_t>(id);
      const uint32_t v = versions[k].load(std::memory_order_relaxed) + 1;
      const Slice key = keys.Key(k);
      const Slice value = payload.Value(k, v, w.value_len);
      const uint64_t begin = NowNs();
      const Status ps = m->Put(key, value);
      const uint64_t end = NowNs();
      tl.put_ns.push_back(SaturateNs(end - begin));
      if (tracer != nullptr) tracer->Record("put", begin, end);
      tl.Check(ps.ok(), "update put", k, ps);
      if (ps.ok()) {
        versions[k].store(v, std::memory_order_release);
        thread_bytes[id] += key.size() + value.size();
      }
    }
  };
  auto reader = [&] {
    OpLog& tl = thread_logs[2];
    std::mt19937_64 rng(Mix(round_seed + 29));
    std::string value;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t k = rng() % n;
      const uint32_t before = versions[k].load(std::memory_order_acquire);
      const uint64_t begin = NowNs();
      const Status gs = m->Get(keys.Key(k), &value);
      const uint64_t end = NowNs();
      const uint32_t after = versions[k].load(std::memory_order_acquire);
      tl.get_ns.push_back(SaturateNs(end - begin));
      if (tracer != nullptr) tracer->Record("get", begin, end);
      // The value read is the one acknowledged before the Get, or a newer
      // one up to the put that was in flight when it returned.
      bool ok = false;
      if (gs.ok()) {
        for (uint64_t v = before; v <= uint64_t{after} + 1 && !ok; ++v) {
          ok = SameBytes(value, payload.Value(k, v, w.value_len));
        }
      }
      tl.Check(ok, "update get", k, gs);
    }
  };

  const DbStats stats0 = m->engine_stats();
  const VfsStats vfs0 = env.vfs.Snapshot();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  {
    std::thread w0(writer, 0);
    std::thread w1(writer, 1);
    std::thread rd(reader);
    std::this_thread::sleep_for(std::chrono::duration<double>(phase_s));
    stop.store(true);
    w0.join();
    w1.join();
    rd.join();
  }
  const uint64_t t1 = NowNs();
  s = m->WriteBarrier(BarrierMode::kSync);
  const uint64_t t2 = NowNs();
  if (tracer != nullptr) tracer->Record("write_barrier", t1, t2);
  log->Check(s.ok(), "write barrier", round, s);
  r.cpu_ns = ProcessCpuNs() - cpu0;
  r.put_loop_s = static_cast<double>(t1 - t0) / 1e9;
  r.barrier_s = static_cast<double>(t2 - t1) / 1e9;
  r.ingest_s = static_cast<double>(t2 - t0) / 1e9;
  r.user_bytes = thread_bytes[0] + thread_bytes[1];
  r.write_side = Diff(m->engine_stats(), stats0);
  r.vfs_ingest = env.vfs.Snapshot().Since(vfs0);
  r.read_side = r.write_side;
  for (OpLog& tl : thread_logs) log->Merge(std::move(tl));
  // Let the compaction debt drain (untimed) so every restore starts from a
  // settled tree instead of however far compaction happened to get.
  WaitForQuiescence(*m);
  m.reset();
  SyncStoreFiles(env.store_dir);

  Restore(env, keys, n,
          [&](uint64_t k) {
            return payload.Value(k, versions[k].load(std::memory_order_relaxed), w.value_len);
          },
          log, &r, &m);
  if (m != nullptr) {
    r.read_side += Diff(m->engine_stats(), DbStats{});
    m.reset();
  }
  std::filesystem::remove_all(env.store_dir);
  log->EndRound();
  return r;
}

double MedianNs(std::vector<uint32_t>& ns) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  return PercentileSorted(ns, 5000);
}

/// Manager::Put against Store::Put (through Manager::store()) on a fresh
/// store, in alternating blocks of puts small enough that no flush runs.
void MeasurePutOverhead(const Env& env, Run* run) {
  const WorkloadSpec& w = env.spec;
  env.vfs.set_tracer(nullptr);
  RecreateDir(env.store_dir);
  const Payload payload(Mix(env.seed + 7), w.value_len);
  constexpr int kBlocks = 10;  // five per side
  const uint64_t per_block = std::clamp<uint64_t>(
      (24ULL << 20) / kBlocks / (w.value_len + kKeyLen), 16, 20'000);
  const KeySet keys(Mix(env.seed + 7), "ovh", per_block * kBlocks);
  std::unique_ptr<Manager> m;
  Status s = Manager::Open(OptionsFor(w, env.vfs), env.store_dir, &m);
  OpLog& log = run->traced;
  log.Check(s.ok(), "open fresh store", 0, s);
  if (!s.ok()) return;
  std::vector<uint32_t> via_manager, via_store;
  for (int b = 0; b < kBlocks; ++b) {
    const bool manager_side = b % 2 == 0;
    for (uint64_t j = 0; j < per_block; ++j) {
      const uint64_t i = static_cast<uint64_t>(b) * per_block + j;
      const Slice key = keys.Key(i);
      const Slice value = payload.Value(i, 0, w.value_len);
      const uint64_t begin = NowNs();
      s = manager_side ? m->Put(key, value) : m->store().Put(key, value);
      const uint64_t end = NowNs();
      (manager_side ? via_manager : via_store).push_back(SaturateNs(end - begin));
      log.Check(s.ok(), "fresh-store put", i, s);
    }
  }
  m.reset();
  std::filesystem::remove_all(env.store_dir);
  run->fresh_put_ns = MedianNs(via_manager);
  run->put_overhead_ns = run->fresh_put_ns - MedianNs(via_store);
}

/// Size of the last-level cache, or 0 when the C library cannot tell.
uint64_t LastLevelCacheBytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return static_cast<uint64_t>(std::max({l3, l2, 0L}));
}

/// crc32c::Value throughput over a buffer larger than the last-level cache
/// (median of three passes).
double MeasureCrc32c(uint64_t seed) {
  const uint64_t bytes =
      std::clamp<uint64_t>(LastLevelCacheBytes() + (16ULL << 20), 64ULL << 20, 512ULL << 20);
  std::string buf(bytes, '\0');
  for (size_t i = 0; i + 8 <= buf.size(); i += 8) {
    const uint64_t word = Mix(seed ^ i);
    std::memcpy(buf.data() + i, &word, 8);
  }
  std::vector<double> rates;
  uint32_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const uint64_t begin = NowNs();
    sink ^= lsmio::crc32c::Value(buf.data(), buf.size());
    const uint64_t end = NowNs();
    rates.push_back(static_cast<double>(bytes) / kGiB / (static_cast<double>(end - begin) / 1e9));
  }
  std::fprintf(stderr, "crc32c over %.0f MiB (checksum %08x)\n", bytes / kMiB, sink);
  return Median(rates);
}

/// Name, value and unit of one reported metric, in print order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Ingest and restore MiB/s over all traced or all untraced rounds, as
/// ratios of sums: the rounds weigh by their time, so a run's figure moves
/// smoothly with the share of time the machine ran slow.
struct Throughput {
  double ingest_mib_s = 0;
  double restore_mib_s = 0;
};

Throughput Aggregate(const std::vector<RoundResult>& rounds, bool traced) {
  double user = 0, ingest_s = 0, restored = 0, restore_s = 0;
  for (const RoundResult& r : rounds) {
    if (r.traced != traced) continue;
    user += static_cast<double>(r.user_bytes);
    ingest_s += r.ingest_s;
    restored += static_cast<double>(r.restore_bytes);
    restore_s += r.restore_s;
  }
  return {Ratio(user / kMiB, ingest_s), Ratio(restored / kMiB, restore_s)};
}

std::vector<Metric> EndToEndMetrics(const Run& run) {
  std::vector<double> setup;
  uint64_t user_bytes = 0, written = 0;
  for (const RoundResult& r : run.rounds) {
    if (r.traced) continue;
    setup.push_back(r.setup_s);
    user_bytes += r.user_bytes;
    written += r.vfs_ingest.write_bytes();
  }
  const Throughput rate = Aggregate(run.rounds, /*traced=*/false);
  const OpLog& log = run.untraced;
  const auto us = [](const LatencySeries& series, uint32_t centi) {
    return series.Percentile(centi) / 1e3;
  };
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"setup_s", Median(setup), "s"},
      {"ingest_mib_s", rate.ingest_mib_s, "MiB/s"},
      {"put_p50_us", us(log.put, 5000), "us"},
      {"put_p999_us", us(log.put, 9990), "us"},
      {"restore_mib_s", rate.restore_mib_s, "MiB/s"},
      {"getbatch_p50_us", us(log.getbatch, 5000), "us"},
      {"getbatch_p99_us", us(log.getbatch, 9900), "us"},
      {"get_p50_us", us(log.get, 5000), "us"},
      {"get_p99_us", us(log.get, 9900), "us"},
      {"write_amp", Ratio(static_cast<double>(written), static_cast<double>(user_bytes)),
       "ratio"},
      {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Run& run, uint64_t spans, uint64_t dropped) {
  LsmDelta w, rd;
  VfsStats vi, vr;
  double put_loop_s = 0, barrier_s = 0;
  uint64_t traced = 0, untraced_cpu = 0, untraced_bytes = 0;
  for (const RoundResult& r : run.rounds) {
    if (!r.traced) {
      untraced_cpu += r.cpu_ns;
      untraced_bytes += r.user_bytes;
      continue;
    }
    ++traced;
    w += r.write_side;
    rd += r.read_side;
    vi += r.vfs_ingest;
    vr += r.vfs_restore;
    put_loop_s += r.put_loop_s;
    barrier_s += r.barrier_s;
  }
  const Throughput with_trace = Aggregate(run.rounds, /*traced=*/true);
  const Throughput without = Aggregate(run.rounds, /*traced=*/false);
  const double per_round = traced ? 1.0 / static_cast<double>(traced) : 0.0;
  const double cpu_ns_per_byte = Ratio(static_cast<double>(untraced_cpu), untraced_bytes);
  const double iorsim_ns_per_byte = lsmio::iorsim::CostModel{}.lsmio_write;
  std::fprintf(stderr,
               "core.cpu_ns_per_byte %.3f ns/B next to iorsim CostModel::lsmio_write "
               "%.2f ns/B (measured/calibrated %.2f)\n",
               cpu_ns_per_byte, iorsim_ns_per_byte, cpu_ns_per_byte / iorsim_ns_per_byte);

  const ClassStats& table = vi.of(FileClass::kTable);
  const ClassStats& wal = vi.of(FileClass::kWal);
  const ClassStats& manifest = vi.of(FileClass::kManifest);
  const ClassStats& other = vi.of(FileClass::kOther);
  const ClassStats reads = vr.reads();
  const TableBuildStats& builds = vi.table_builds;
  const double s_ns = 1e-9;
  const double overhead_ingest =
      Ratio(without.ingest_mib_s, with_trace.ingest_mib_s) * 100.0 - 100.0;
  const double overhead_restore =
      Ratio(without.restore_mib_s, with_trace.restore_mib_s) * 100.0 - 100.0;
  return {
      {"core.put_ns", run.traced.put.Percentile(5000), "ns"},
      {"core.fresh_put_ns", run.fresh_put_ns, "ns"},
      {"core.put_overhead_ns", run.put_overhead_ns, "ns"},
      {"core.barrier_s", barrier_s * per_round, "s"},
      {"core.cpu_ns_per_byte", cpu_ns_per_byte, "ns/B"},
      {"core.cpu_vs_iorsim", cpu_ns_per_byte / iorsim_ns_per_byte, "ratio"},
      {"lsm.stall_memtable_s", w.stall_memtable_us / 1e6 * per_round, "s"},
      {"lsm.stall_share", Ratio(w.stall_memtable_us / 1e6, put_loop_s), "ratio"},
      {"lsm.flushes", w.flushes * per_round, "count"},
      {"lsm.flush_s", builds.span_ns * s_ns * per_round, "s"},
      {"lsm.flush_mib_s", Ratio(builds.bytes / kMiB, builds.span_ns * s_ns), "MiB/s"},
      {"lsm.flush_build_s", builds.self_ns * s_ns * per_round, "s"},
      {"lsm.stall_l0_s", w.stall_l0_us / 1e6 * per_round, "s"},
      {"lsm.slowdown_delay_s", w.slowdown_delay_us / 1e6 * per_round, "s"},
      {"lsm.compactions", w.compactions * per_round, "count"},
      {"lsm.compaction_read_mib", w.compaction_read / kMiB * per_round, "MiB"},
      {"lsm.compaction_write_mib", w.compaction_written / kMiB * per_round, "MiB"},
      {"lsm.writers_per_group", Ratio(w.group_writers, w.group_batches), "ratio"},
      {"lsm.block_cache_hit_ratio",
       Ratio(rd.cache_hits, rd.cache_hits + rd.cache_misses), "ratio"},
      {"lsm.block_cache_lookups", (rd.cache_hits + rd.cache_misses) * per_round, "count"},
      {"lsm.bloom_useful_ratio", Ratio(rd.bloom_useful, rd.bloom_checked), "ratio"},
      {"lsm.bloom_checked", rd.bloom_checked * per_round, "count"},
      {"lsm.multiget_coalesced_reads", rd.coalesced_reads * per_round, "count"},
      {"vfs.table.append_calls", table.append_calls * per_round, "count"},
      {"vfs.table.bytes_per_append", Ratio(table.append_bytes, table.append_calls), "B"},
      {"vfs.table.append_s", table.append_ns * s_ns * per_round, "s"},
      {"vfs.table.sync_s", table.sync_ns * s_ns * per_round, "s"},
      {"vfs.wal.append_calls", wal.append_calls * per_round, "count"},
      {"vfs.wal.append_s", wal.append_ns * s_ns * per_round, "s"},
      {"vfs.manifest.append_calls", manifest.append_calls * per_round, "count"},
      {"vfs.manifest.sync_s", manifest.sync_ns * s_ns * per_round, "s"},
      {"vfs.other.append_calls", other.append_calls * per_round, "count"},
      {"vfs.read_calls", reads.read_calls * per_round, "count"},
      {"vfs.bytes_per_read", Ratio(reads.read_bytes, reads.read_calls), "B"},
      {"vfs.read_s", reads.read_ns * s_ns * per_round, "s"},
      {"vfs.write_bytes", vi.write_bytes() * per_round, "B"},
      {"common.crc32c_gib_s", run.crc32c_gib_s, "GiB/s"},
      {"trace.ingest_mib_s", with_trace.ingest_mib_s, "MiB/s"},
      {"trace.restore_mib_s", with_trace.restore_mib_s, "MiB/s"},
      {"trace.ingest_overhead_pct", overhead_ingest, "%"},
      {"trace.restore_overhead_pct", overhead_restore, "%"},
      {"trace.spans", static_cast<double>(spans), "count"},
      {"trace.spans_dropped", static_cast<double>(dropped), "count"},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Full record of the run (sizes, per-round figures, sample counts, error
/// messages) for the results file; run.py adds the provenance.
std::string DetailJson(const Args& args, const WorkloadSpec& w, const Run& run,
                       const OpLog& all, const std::vector<Metric>& metrics) {
  std::string rounds = "[";
  for (size_t i = 0; i < run.rounds.size(); ++i) {
    const RoundResult& r = run.rounds[i];
    if (i) rounds += ", ";
    std::string passes = "[";
    for (size_t p = 0; p < r.pass_restore_mib_s.size(); ++p) {
      passes += (p ? ", " : "") + JsonNumber(r.pass_restore_mib_s[p]);
    }
    passes += "]";
    rounds += "{\"traced\": " + std::string(r.traced ? "true" : "false") +
              ", \"setup_s\": " + JsonNumber(r.setup_s) +
              ", \"ingest_mib_s\": " + JsonNumber(r.ingest_mib_s()) +
              ", \"restore_mib_s\": " + JsonNumber(r.restore_mib_s()) +
              ", \"pass_restore_mib_s\": " + passes +
              ", \"user_bytes\": " + std::to_string(r.user_bytes) + "}";
  }
  rounds += "]";
  const auto sample = [](const char* name, size_t n) {
    const uint32_t centi = HighestSupportedPercentile(n);
    return JsonString(name) + ": {\"count\": " + std::to_string(n) +
           ", \"highest_supported_percentile\": " + JsonNumber(centi / 100.0) + "}";
  };
  std::string errors = "[";
  for (size_t i = 0; i < all.errors.size(); ++i) {
    errors += (i ? ", " : "") + JsonString(all.errors[i]);
  }
  errors += "]";
  const OpLog& lat = args.trace ? run.traced : run.untraced;
  return "{\"workload\": " + JsonString(w.name) + ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + JsonNumber(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"build_type\": " + JsonString(LSMIO_BENCH_BUILD_TYPE) +
         ", \"sizes\": {\"value_bytes\": " + std::to_string(w.value_len) +
         ", \"key_bytes\": " + std::to_string(kKeyLen) +
         ", \"keys\": " + std::to_string(w.keys) +
         ", \"getbatch_keys\": " + std::to_string(kBatchKeys) +
         ", \"point_gets_per_round\": " + std::to_string(w.point_gets) +
         ", \"restore_passes_per_round\": " + std::to_string(w.restore_passes) +
         ", \"write_buffer_bytes\": " + std::to_string(LsmioOptions{}.write_buffer_size) +
         ", \"max_write_buffer_number\": " +
         std::to_string(LsmioOptions{}.max_write_buffer_number) + "}" +
         ", \"samples\": {" + sample("put", lat.put.count()) + ", " +
         sample("getbatch", lat.getbatch.count()) + ", " + sample("get", lat.get.count()) +
         "}, \"rounds\": " + rounds + ", \"attempted\": " + std::to_string(all.attempted) +
         ", \"failed\": " + std::to_string(all.failed) +
         ", \"error_rate\": " + JsonNumber(Ratio(all.failed, all.attempted)) +
         ", \"errors\": " + errors + ", \"metrics\": " + MetricsJson(metrics) + "}";
}

/// Bytes of free space a workload needs in its scratch directory.
uint64_t RequiredBytes(const WorkloadSpec& w) {
  const uint64_t data = w.keys * (w.value_len + kKeyLen);
  // Checkpoint: one round's tables. Update: the prefill plus overwrites in
  // flight, WAL and compaction outputs before the old tables are deleted.
  return (w.update_mode ? 4 * data : 2 * data) + (256ULL << 20);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args->trace = value == "1";
    else if (flag == "--scratch") args->scratch = value;
    else if (flag == "--out") args->out = value;
    else if (flag == "--spans") args->spans = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->scratch.empty() &&
         !args->out.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lsmio_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--scratch DIR --out FILE [--spans FILE]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to report: assertions are enabled (build type %s)\n",
               LSMIO_BENCH_BUILD_TYPE);
  return 3;
#endif
  if (LSMIO_BENCH_SANITIZED || LSMIO_STATUS_DEBUG ||
      std::string(LSMIO_BENCH_BUILD_TYPE) == "Debug") {
    std::fprintf(stderr, "refusing to report from a %s/sanitizer/status-debug build\n",
                 LSMIO_BENCH_BUILD_TYPE);
    return 3;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  const std::filesystem::space_info space = std::filesystem::space(args.scratch, ec);
  if (ec || space.available < RequiredBytes(*spec)) {
    std::fprintf(stderr,
                 "scratch directory %s has %.0f MiB free; %s needs %.0f MiB (%s)\n",
                 args.scratch.c_str(), ec ? 0.0 : space.available / kMiB, spec->name,
                 RequiredBytes(*spec) / kMiB, ec ? ec.message().c_str() : "too little");
    return 4;
  }

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(kMaxSpansPerName);
  TimingVfs timing_vfs(lsmio::vfs::PosixVfs());
  const Env env{*spec, args.seed, args.scratch + "/store", timing_vfs, tracer.get()};
  Run run;

  // Rounds alternate untraced/traced under --trace 1, so the same run gives
  // the untraced figures the tracing overhead is measured against.
  const auto is_traced = [&](uint64_t round) { return args.trace && round % 2 == 1; };
  const uint64_t start = NowNs();
  if (spec->update_mode) {
    const int rounds = args.trace ? 4 : 8;
    for (int i = 0; i < rounds; ++i) {
      const bool traced = is_traced(i);
      run.rounds.push_back(UpdateRound(env, i, traced, args.seconds / rounds,
                                       traced ? &run.traced : &run.untraced));
    }
  } else {
    const uint64_t min_rounds = args.trace ? 2 : 3;
    const double budget_ns = args.seconds * 1e9;
    for (uint64_t i = 0;; ++i) {
      const bool traced = is_traced(i);
      run.rounds.push_back(CheckpointRound(env, i, traced, traced ? &run.traced : &run.untraced));
      const double elapsed = static_cast<double>(NowNs() - start);
      if (i + 1 >= min_rounds && elapsed >= budget_ns) break;
    }
  }
  if (args.trace) {
    MeasurePutOverhead(env, &run);
    run.crc32c_gib_s = MeasureCrc32c(args.seed);
  }
  timing_vfs.set_tracer(nullptr);

  OpLog all;
  all.attempted = run.untraced.attempted + run.traced.attempted;
  all.failed = run.untraced.failed + run.traced.failed;
  for (const OpLog* l : {&run.untraced, &run.traced}) {
    for (const std::string& e : l->errors) {
      if (all.errors.size() < kMaxErrorMessages) all.errors.push_back(e);
    }
  }
  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(run, tracer->recorded(), tracer->dropped())
                 : EndToEndMetrics(run);

  std::fprintf(stderr, "%s seed=%" PRIu64 " trace=%d rounds=%zu attempted=%" PRIu64
                       " failed=%" PRIu64 " error_rate=%.3g\n",
               spec->name, args.seed, args.trace ? 1 : 0, run.rounds.size(), all.attempted,
               all.failed, Ratio(all.failed, all.attempted));
  for (const std::string& e : all.errors) std::fprintf(stderr, "  error: %s\n", e.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  bool io_ok = true;
  if (tracer != nullptr && !args.spans.empty()) {
    io_ok = tracer->WriteTsv(args.spans);
    if (!io_ok) std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
  }
  {
    std::ofstream out(args.out);
    out << DetailJson(args, *spec, run, all, metrics) << "\n";
    io_ok = io_ok && static_cast<bool>(out.flush());
    if (!out) std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              all.failed == 0 ? "true" : "false", all.attempted, all.failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return all.failed == 0 && io_ok ? 0 : 1;
}

}  // namespace
}  // namespace lsmio_bench

int main(int argc, char** argv) { return lsmio_bench::Main(argc, argv); }
