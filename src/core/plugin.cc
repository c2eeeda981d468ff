#include "core/plugin.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "common/coding.h"
#include "core/manager.h"

namespace lsmio {

namespace {

std::string StoreDir(const std::string& path, int rank) {
  return path + "/lsmio." + std::to_string(rank);
}

std::string DataKey(const std::string& name, uint64_t offset) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "!%016" PRIx64, offset);
  return "d!" + name + buf;
}

std::string IndexKey(const std::string& name) { return "i!" + name; }

/// A block index entry: fixed64 offset | fixed64 count | fixed32 elem size.
constexpr size_t kIndexEntrySize = 8 + 8 + 4;

/// Small positive integer parameter, or `fallback` when absent/invalid.
int ParameterInt(a2::IO& io, const std::string& key, int fallback) {
  const std::string value = io.Parameter(key);
  if (value.empty()) return fallback;
  int parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9' || parsed > 1000) return fallback;
    parsed = parsed * 10 + (c - '0');
  }
  return parsed > 0 ? parsed : fallback;
}

LsmioOptions PluginOptions(a2::IO& io) {
  LsmioOptions options;
  options.vfs = &io.fs();
  // Inherit the A2 buffer configuration (paper §3.1.1: "inherit the value
  // from ADIOS2 configuration when used as a plugin").
  options.write_buffer_size = io.ParameterBytes("BufferChunkSize", 32 * MiB);
  options.block_size = io.ParameterBytes("BlockSize", 4 * KiB);
  options.sync_writes = io.Parameter("Sync") == "true";
  options.use_mmap = io.Parameter("Mmap") == "true";
  // Write pipeline knobs (XML <parameter key="..."/>).
  options.background_threads =
      ParameterInt(io, "BackgroundThreads", options.background_threads);
  options.max_write_buffer_number =
      ParameterInt(io, "MaxWriteBufferNumber", options.max_write_buffer_number);
  options.num_shards = ParameterInt(io, "NumShards", options.num_shards);
  return options;
}

class LsmioWriterEngine final : public a2::Engine {
 public:
  static Result<std::unique_ptr<a2::Engine>> Make(a2::IO& io, const std::string& path) {
    auto engine = std::unique_ptr<LsmioWriterEngine>(new LsmioWriterEngine());
    LSMIO_RETURN_IF_ERROR(Manager::Open(PluginOptions(io),
                                        StoreDir(path, io.rank()),
                                        &engine->manager_));
    return {std::unique_ptr<a2::Engine>(std::move(engine))};
  }

  Status Put(const a2::Variable& variable, const void* data,
             a2::PutMode mode) override {
    ++stats_.puts;
    const uint64_t bytes = variable.count() * variable.element_size();
    stats_.bytes_put += bytes;

    if (mode == a2::PutMode::kDeferred) {
      staged_.push_back(Staged{variable.name(), variable.offset(),
                               variable.count(), variable.element_size(), data});
      return Status::OK();
    }
    return Store(variable.name(), variable.offset(), variable.count(),
                 variable.element_size(), data);
  }

  Status PerformPuts() override {
    ++stats_.perform_puts_calls;
    for (const Staged& staged : staged_) {
      LSMIO_RETURN_IF_ERROR(Store(staged.name, staged.offset, staged.count,
                                  staged.element_size, staged.data));
    }
    staged_.clear();
    return Status::OK();
  }

  Status Get(const a2::Variable&, void*) override {
    return Status::InvalidArgument("LsmioPlugin engine opened for writing");
  }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    LSMIO_RETURN_IF_ERROR(PerformPuts());
    // The paper: "LSMIO calls the write-barrier implicitly at the end of
    // the checkpoint file write."
    return manager_->WriteBarrier(BarrierMode::kSync);
  }

  a2::EngineStats stats() const override { return stats_; }

 private:
  LsmioWriterEngine() = default;

  struct Staged {
    std::string name;
    uint64_t offset;
    uint64_t count;
    uint32_t element_size;
    const void* data;
  };

  Status Store(const std::string& name, uint64_t offset, uint64_t count,
               uint32_t element_size, const void* data) {
    // The plugin serializes the typed selection into a byte value (paper:
    // "a simple serialization into a string").
    const uint64_t bytes = count * element_size;
    LSMIO_RETURN_IF_ERROR(manager_->Put(
        DataKey(name, offset), Slice(static_cast<const char*>(data), bytes)));
    std::string entry;
    PutFixed64(&entry, offset);
    PutFixed64(&entry, count);
    PutFixed32(&entry, element_size);
    return manager_->Append(IndexKey(name), entry);
  }

  std::unique_ptr<Manager> manager_;
  std::vector<Staged> staged_;
  a2::EngineStats stats_;
  bool closed_ = false;
};

class LsmioReaderEngine final : public a2::Engine {
 public:
  static Result<std::unique_ptr<a2::Engine>> Make(a2::IO& io, const std::string& path) {
    auto engine = std::unique_ptr<LsmioReaderEngine>(new LsmioReaderEngine());

    std::vector<std::string> children;
    LSMIO_RETURN_IF_ERROR(io.fs().ListDir(path, &children));
    bool any = false;
    for (const std::string& child : children) {
      if (child.rfind("lsmio.", 0) != 0) continue;
      LsmioOptions options = PluginOptions(io);
      options.read_only = true;  // many ranks open the same stores to read
      std::unique_ptr<Manager> manager;
      LSMIO_RETURN_IF_ERROR(Manager::Open(options, path + "/" + child, &manager));
      engine->stores_.push_back(std::move(manager));
      any = true;
    }
    if (!any) return Status::NotFound("no LSMIO rank stores under " + path);
    return {std::unique_ptr<a2::Engine>(std::move(engine))};
  }

  Status Put(const a2::Variable&, const void*, a2::PutMode) override {
    return Status::InvalidArgument("LsmioPlugin engine opened for reading");
  }
  Status PerformPuts() override {
    return Status::InvalidArgument("LsmioPlugin engine opened for reading");
  }

  Status Get(const a2::Variable& variable, void* data) override {
    ++stats_.gets;
    const uint64_t want_begin = variable.offset();
    const uint64_t want_end = variable.offset() + variable.count();
    const uint32_t element_size = variable.element_size();
    uint64_t covered = 0;

    const std::vector<IndexedBlock>* blocks = nullptr;
    LSMIO_RETURN_IF_ERROR(BlocksFor(variable.name(), &blocks));

    // Group the intersecting blocks by owning rank store, then fetch each
    // group with one engine MultiGet instead of a synchronous point Get per
    // block — the read-side cost the paper identifies for restores.
    std::map<size_t, std::vector<const IndexedBlock*>> by_store;
    for (const IndexedBlock& block : *blocks) {
      if (block.element_size != element_size) {
        return Status::InvalidArgument("element size mismatch for " +
                                       variable.name());
      }
      const uint64_t isect_begin = std::max(want_begin, block.offset);
      const uint64_t isect_end = std::min(want_end, block.offset + block.count);
      if (isect_begin >= isect_end) continue;
      by_store[block.store].push_back(&block);
    }

    for (const auto& [store_index, group] : by_store) {
      std::vector<std::string> key_storage;
      key_storage.reserve(group.size());
      for (const IndexedBlock* block : group) {
        key_storage.push_back(DataKey(variable.name(), block->offset));
      }
      std::vector<Slice> keys(key_storage.begin(), key_storage.end());
      std::vector<std::string> values;
      std::vector<Status> statuses;
      LSMIO_RETURN_IF_ERROR(
          stores_[store_index]->GetBatch(keys, &values, &statuses));
      for (size_t i = 0; i < group.size(); ++i) {
        LSMIO_RETURN_IF_ERROR(statuses[i]);
        const IndexedBlock& block = *group[i];
        const std::string& value = values[i];
        if (value.size() != block.count * element_size) {
          return Status::Corruption("block size mismatch for " +
                                    variable.name());
        }
        const uint64_t isect_begin = std::max(want_begin, block.offset);
        const uint64_t isect_end =
            std::min(want_end, block.offset + block.count);
        std::memcpy(
            static_cast<char*>(data) + (isect_begin - want_begin) * element_size,
            value.data() + (isect_begin - block.offset) * element_size,
            (isect_end - isect_begin) * element_size);
        covered += isect_end - isect_begin;
        stats_.bytes_got += (isect_end - isect_begin) * element_size;
      }
    }
    if (covered < variable.count()) {
      return Status::NotFound("selection not fully covered for " + variable.name());
    }
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }
  a2::EngineStats stats() const override { return stats_; }

 private:
  LsmioReaderEngine() = default;

  struct IndexedBlock {
    size_t store;
    uint64_t offset;
    uint64_t count;
    uint32_t element_size;
  };

  /// Loads (once) and caches the merged block index of a variable across
  /// all rank stores — readers parse metadata at open/first-use, like the
  /// BP reader does.
  Status BlocksFor(const std::string& name, const std::vector<IndexedBlock>** out) {
    auto it = block_cache_.find(name);
    if (it == block_cache_.end()) {
      std::vector<IndexedBlock> blocks;
      for (size_t store_index = 0; store_index < stores_.size(); ++store_index) {
        std::string index;
        Status s = stores_[store_index]->Get(IndexKey(name), &index);
        if (s.IsNotFound()) continue;
        LSMIO_RETURN_IF_ERROR(s);
        if (index.size() % kIndexEntrySize != 0) {
          return Status::Corruption("bad LSMIO plugin index for " + name);
        }
        for (size_t pos = 0; pos < index.size(); pos += kIndexEntrySize) {
          blocks.push_back(IndexedBlock{
              store_index, DecodeFixed64(index.data() + pos),
              DecodeFixed64(index.data() + pos + 8),
              DecodeFixed32(index.data() + pos + 16)});
        }
      }
      it = block_cache_.emplace(name, std::move(blocks)).first;
    }
    *out = &it->second;
    return Status::OK();
  }

  std::vector<std::unique_ptr<Manager>> stores_;
  std::map<std::string, std::vector<IndexedBlock>> block_cache_;
  a2::EngineStats stats_;
};

}  // namespace

const char* RegisterLsmioPlugin() {
  static std::once_flag once;
  std::call_once(once, [] {
    a2::RegisterEngine(
        kLsmioPluginName,
        [](a2::IO& io, const std::string& path,
           a2::Mode mode) -> Result<std::unique_ptr<a2::Engine>> {
          if (mode == a2::Mode::kWrite) {
            LSMIO_RETURN_IF_ERROR(io.fs().CreateDir(path));
            return LsmioWriterEngine::Make(io, path);
          }
          return LsmioReaderEngine::Make(io, path);
        });
  });
  return kLsmioPluginName;
}

}  // namespace lsmio
