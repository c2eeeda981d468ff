// google-benchmark microbenchmarks of the LSM engine's building blocks:
// the real-time costs behind the virtual CostModel constants used in the
// figure benchmarks (EXPERIMENTS.md documents the mapping).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/units.h"
#include "lsm/arena.h"
#include "lsm/compression.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "lsm/memtable.h"
#include "lsm/skiplist.h"
#include "vfs/mem_vfs.h"
#include "vfs/posix_vfs.h"

namespace {

using namespace lsmio;
using namespace lsmio::lsm;

void BM_Crc32c(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::string data(n, '\0');
  Rng rng(1);
  rng.Fill(data.data(), n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), n));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_LzLiteCompress(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  // Half-compressible data: realistic checkpoint payloads.
  std::string data(n, '\0');
  Rng rng(2);
  for (size_t i = 0; i < n; i += 64) {
    if (rng.Bernoulli(0.5)) rng.Fill(data.data() + i, std::min<size_t>(64, n - i));
  }
  std::string out;
  for (auto _ : state) {
    LzLiteCompress(data, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LzLiteCompress)->Arg(65536)->Arg(1 << 20);

void BM_LzLiteDecompress(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::string data(n, 'r');
  std::string compressed;
  LzLiteCompress(data, &compressed);
  std::string out;
  for (auto _ : state) {
    LzLiteDecompress(compressed, &out).IgnoreError();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LzLiteDecompress)->Arg(65536)->Arg(1 << 20);

void BM_SkipListInsert(benchmark::State& state) {
  struct Cmp {
    int operator()(uint64_t a, uint64_t b) const {
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  };
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    auto arena = std::make_unique<Arena>();
    SkipList<uint64_t, Cmp> list(Cmp{}, arena.get());
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) list.Insert(rng.Next());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkipListInsert)->Arg(10000);

void BM_MemTableAdd(benchmark::State& state) {
  const size_t value_size = static_cast<size_t>(state.range(0));
  InternalKeyComparator icmp(BytewiseComparator());
  const std::string value(value_size, 'v');
  for (auto _ : state) {
    state.PauseTiming();
    MemTable* mem = new MemTable(icmp);
    mem->Ref();
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      mem->Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue,
               "key" + std::to_string(i), value);
    }
    state.PauseTiming();
    mem->Unref();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() * 1000 *
                          static_cast<int64_t>(value_size));
}
BENCHMARK(BM_MemTableAdd)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BloomFilterCreate(benchmark::State& state) {
  auto policy = std::unique_ptr<const FilterPolicy>(NewBloomFilterPolicy(10));
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < state.range(0); ++i) {
    key_storage.push_back("bloom-key-" + std::to_string(i));
  }
  for (const auto& key : key_storage) keys.emplace_back(key);
  std::string filter;
  for (auto _ : state) {
    filter.clear();
    policy->CreateFilter(keys.data(), static_cast<int>(keys.size()), &filter);
    benchmark::DoNotOptimize(filter.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomFilterCreate)->Arg(10000);

void BM_DbPut(benchmark::State& state) {
  const size_t value_size = static_cast<size_t>(state.range(0));
  vfs::MemVfs fs;
  Options options;
  options.vfs = &fs;
  options.disable_wal = true;
  options.disable_compaction = true;
  std::unique_ptr<DB> db;
  DB::Open(options, "/bm", &db).IgnoreError();  // bench scratch store
  const std::string value(value_size, 'v');
  uint64_t key = 0;
  for (auto _ : state) {
    db->Put({}, "key" + std::to_string(key++), value).IgnoreError();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(value_size));
}
BENCHMARK(BM_DbPut)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// One DB::Write of 64 puts of 100 B on MemVfs with the WAL on: the
// many-op batch path, which the checkpoint workloads' one-put batches
// barely reach.
void BM_DbWriteBatch(benchmark::State& state) {
  const int64_t ops = state.range(0);
  vfs::MemVfs fs;
  Options options;
  options.vfs = &fs;
  options.disable_compaction = true;
  std::unique_ptr<DB> db;
  DB::Open(options, "/bm", &db).IgnoreError();  // bench scratch store
  const std::string value(100, 'v');
  uint64_t key = 0;
  WriteBatch batch;
  for (auto _ : state) {
    batch.Clear();
    for (int64_t i = 0; i < ops; ++i) batch.Put("key" + std::to_string(key++), value);
    db->Write({}, &batch).IgnoreError();
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_DbWriteBatch)->Arg(64);

// Random point lookups in one flushed table of 2000 4 KiB values.
void DbGet(benchmark::State& state, bool disable_cache) {
  vfs::MemVfs fs;
  Options options;
  options.vfs = &fs;
  options.disable_wal = true;
  options.disable_compaction = true;
  options.disable_cache = disable_cache;
  std::unique_ptr<DB> db;
  DB::Open(options, "/bm", &db).IgnoreError();  // bench scratch store
  constexpr int kKeys = 2000;
  const std::string value(4096, 'v');
  for (int i = 0; i < kKeys; ++i) {
    db->Put({}, "key" + std::to_string(i), value).IgnoreError();
  }
  db->FlushMemTable(true).IgnoreError();  // force table reads, not memtable hits
  Rng rng(7);
  std::string out;
  for (auto _ : state) {
    db->Get({}, "key" + std::to_string(rng.Uniform(kKeys)), &out).IgnoreError();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DbGet(benchmark::State& state) { DbGet(state, /*disable_cache=*/false); }
BENCHMARK(BM_DbGet);

// The paper configuration: no block cache, so every lookup reads its block
// and serves it from the read buffer without a copy.
void BM_DbGetUncached(benchmark::State& state) { DbGet(state, /*disable_cache=*/true); }
BENCHMARK(BM_DbGetUncached);

// One memtable flush to the local file system: 32 MiB of 64 KiB values, the
// paper's checkpoint buffer, built into a table, appended, and fsynced
// before install. Only FlushMemTable is timed; each iteration starts a
// fresh store in a temp directory.
void BM_FlushPosix(benchmark::State& state) {
  constexpr size_t kValueBytes = 64 * 1024;
  constexpr int kValues = 512;  // 32 MiB
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lsmio_bm_flush_" + std::to_string(::getpid()));
  Options options;
  options.vfs = &vfs::PosixVfs();
  options.disable_wal = true;
  options.disable_compaction = true;
  options.write_buffer_size = 64 * 1024 * 1024;  // only the timed flush
  const std::string value(kValueBytes, 'v');
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    std::unique_ptr<DB> db;
    DB::Open(options, dir.string(), &db).IgnoreError();  // bench scratch store
    for (int i = 0; i < kValues; ++i) {
      db->Put({}, "key" + std::to_string(i), value).IgnoreError();
    }
    state.ResumeTiming();
    db->FlushMemTable(true).IgnoreError();
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kValues *
                          static_cast<int64_t>(kValueBytes));
}
// The flush runs on a background thread: rate it by wall time.
BENCHMARK(BM_FlushPosix)->UseRealTime();

// A forward scan through DB::NewIterator with compaction's read options
// (fill_cache off, a 1 MiB readahead window) over one flushed ~32 MiB
// table of 4 KiB values on the local file system, with no block cache.
// The store is built once and stays in the OS page cache, so this times
// the table read path: VFS reads, block decoding and iteration.
void BM_ScanPosix(benchmark::State& state) {
  constexpr size_t kValueBytes = 4 * 1024;
  constexpr int kValues = 8192;  // 32 MiB
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lsmio_bm_scan_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Options options;
  options.vfs = &vfs::PosixVfs();
  options.disable_wal = true;
  options.disable_compaction = true;
  options.disable_cache = true;
  options.write_buffer_size = 64 * 1024 * 1024;  // one table
  std::unique_ptr<DB> db;
  DB::Open(options, dir.string(), &db).IgnoreError();  // bench scratch store
  const std::string value(kValueBytes, 'v');
  for (int i = 0; i < kValues; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%08d", i);
    db->Put({}, key, value).IgnoreError();
  }
  db->FlushMemTable(true).IgnoreError();
  ReadOptions scan;
  scan.fill_cache = false;
  scan.readahead_bytes = 1024 * 1024;
  for (auto _ : state) {
    std::unique_ptr<Iterator> iter(db->NewIterator(scan));
    uint64_t bytes = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) bytes += iter->value().size();
    benchmark::DoNotOptimize(bytes);
  }
  db.reset();
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kValues *
                          static_cast<int64_t>(kValueBytes));
}
BENCHMARK(BM_ScanPosix);

}  // namespace

BENCHMARK_MAIN();
