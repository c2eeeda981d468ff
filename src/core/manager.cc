#include "core/manager.h"

#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/rate_limiter.h"
#include "common/synchronization.h"
#include "minimpi/minimpi.h"

namespace lsmio {

namespace {

// Serialized remote-put entry: varint dest | varstring key | varstring value.
void PackRemotePut(std::string* dst, int dest, const Slice& key, const Slice& value) {
  PutVarint32(dst, static_cast<uint32_t>(dest));
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
}

}  // namespace

Status Manager::Open(const LsmioOptions& options, const std::string& path,
                     std::unique_ptr<Manager>* manager) {
  std::unique_ptr<Store> store;
  LSMIO_RETURN_IF_ERROR(OpenLsmStore(options, path, &store));
  manager->reset(new Manager(options, std::move(store)));
  return Status::OK();
}

int Manager::OwnerOf(const Slice& key) const {
  if (options_.comm == nullptr) return 0;
  return static_cast<int>(Hash64(key) %
                          static_cast<uint64_t>(options_.comm->size()));
}

Status Manager::Get(const Slice& key, std::string* value) {
  return Get(lsm::ReadOptions{}, key, value);
}

Status Manager::Get(const lsm::ReadOptions& read_options, const Slice& key,
                    std::string* value) {
  Status s = store_->Get(read_options, key, value);
  MutexLock lock(&counters_mu_);
  ++counters_.gets;
  if (s.ok()) counters_.bytes_got += value->size();
  return s;
}

Status Manager::GetBatch(std::span<const Slice> keys,
                         std::vector<std::string>* values,
                         std::vector<Status>* statuses) {
  return GetBatch(lsm::ReadOptions{}, keys, values, statuses);
}

Status Manager::GetBatch(const lsm::ReadOptions& read_options,
                         std::span<const Slice> keys,
                         std::vector<std::string>* values,
                         std::vector<Status>* statuses) {
  Status s = store_->GetBatch(read_options, keys, values, statuses);
  MutexLock lock(&counters_mu_);
  ++counters_.multigets;
  counters_.multiget_keys += keys.size();
  if (s.ok()) {
    for (size_t i = 0; i < statuses->size(); ++i) {
      if ((*statuses)[i].ok()) counters_.bytes_got += (*values)[i].size();
    }
  }
  return s;
}

Status Manager::Put(const Slice& key, const Slice& value) {
  // SystemClock, not std::chrono directly: keeps the latency counter
  // deterministic under an injected clock (lsmio-no-direct-clock).
  const uint64_t start_us = SystemClock::Default()->NowMicros();

  Status s;
  if (options_.collective_io && options_.comm != nullptr &&
      OwnerOf(key) != options_.comm->rank()) {
    // Route to the owner: buffered until the next CollectiveFence.
    {
      MutexLock lock(&remote_mu_);
      PackRemotePut(&remote_puts_, OwnerOf(key), key, value);
    }
    MutexLock lock(&counters_mu_);
    ++counters_.remote_puts;
    ++counters_.puts;
    counters_.bytes_put += value.size();
    return Status::OK();
  }
  s = store_->Put(key, value);

  const uint64_t elapsed = SystemClock::Default()->NowMicros() - start_us;
  MutexLock lock(&counters_mu_);
  ++counters_.puts;
  counters_.bytes_put += value.size();
  counters_.put_latency_us.Add(static_cast<double>(elapsed));
  return s;
}

Status Manager::PutUint64(const Slice& key, uint64_t value) {
  std::string encoded;
  PutFixed64(&encoded, value);
  return Put(key, encoded);
}

Status Manager::PutDouble(const Slice& key, double value) {
  uint64_t bits;
  static_assert(sizeof bits == sizeof value);
  __builtin_memcpy(&bits, &value, sizeof bits);
  return PutUint64(key, bits);
}

Status Manager::GetUint64(const Slice& key, uint64_t* value) {
  std::string encoded;
  LSMIO_RETURN_IF_ERROR(Get(key, &encoded));
  if (encoded.size() != 8) return Status::Corruption("value is not a uint64");
  *value = DecodeFixed64(encoded.data());
  return Status::OK();
}

Status Manager::GetDouble(const Slice& key, double* value) {
  uint64_t bits;
  LSMIO_RETURN_IF_ERROR(GetUint64(key, &bits));
  __builtin_memcpy(value, &bits, sizeof bits);
  return Status::OK();
}

Status Manager::Append(const Slice& key, const Slice& value) {
  Status s = store_->Append(key, value);
  MutexLock lock(&counters_mu_);
  ++counters_.appends;
  counters_.bytes_put += value.size();
  return s;
}

Status Manager::Del(const Slice& key) {
  Status s = store_->Del(key);
  MutexLock lock(&counters_mu_);
  ++counters_.dels;
  return s;
}

Status Manager::WriteBarrier() { return WriteBarrier(BarrierMode::kSync); }

Status Manager::WriteBarrier(BarrierMode mode) {
  Status s = store_->WriteBarrier(mode);
  MutexLock lock(&counters_mu_);
  ++counters_.write_barriers;
  return s;
}

Status Manager::StartBatch() { return store_->StartBatch(); }
Status Manager::StopBatch() { return store_->StopBatch(); }

Status Manager::CollectiveFence() {
  if (!options_.collective_io || options_.comm == nullptr) return Status::OK();
  minimpi::Comm& comm = *options_.comm;

  std::string mine;
  {
    MutexLock lock(&remote_mu_);
    mine.swap(remote_puts_);
  }
  const std::vector<std::string> all = comm.Allgather(mine);

  // Apply entries destined to this rank.
  for (const std::string& packed : all) {
    Slice input(packed);
    while (!input.empty()) {
      uint32_t dest;
      Slice key;
      Slice value;
      if (!GetVarint32(&input, &dest) || !GetLengthPrefixedSlice(&input, &key) ||
          !GetLengthPrefixedSlice(&input, &value)) {
        return Status::Corruption("malformed collective put exchange");
      }
      if (static_cast<int>(dest) == comm.rank()) {
        LSMIO_RETURN_IF_ERROR(store_->Put(key, value));
      }
    }
  }
  comm.Barrier();
  return Status::OK();
}

ManagerCounters Manager::counters() const {
  MutexLock lock(&counters_mu_);
  return counters_;
}

}  // namespace lsmio
