// Compaction pipeline: overlaps the I/O-bound half of a compaction (block
// reads, decode, heap merge — everything behind Iterator::Next on the
// merged input) with the compute/write half (drop logic, block encode,
// output writes), Pome-style.
//
// A producer thread drains the merged input iterator into packed entry
// batches while the consumer processes the previous batch; the queue is
// bounded (double buffering), so a slow consumer backpressures the
// producer instead of buffering the whole compaction, and memory stays at
// ~2 batches.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/synchronization.h"
#include "lsm/iterator.h"

namespace lsmio::lsm {

/// Double-buffered producer/consumer source: a background thread runs the
/// input iterator and packs entries into length-prefixed batches of
/// ~batch_bytes; the consumer decodes them sequentially.
class PipelinedKvSource {
 public:
  /// Does not take ownership of `iter`, which must stay valid for this
  /// object's lifetime and is driven exclusively by the producer thread.
  explicit PipelinedKvSource(Iterator* iter, size_t batch_bytes = 1U << 20,
                             size_t max_queued_batches = 2);
  ~PipelinedKvSource();

  PipelinedKvSource(const PipelinedKvSource&) = delete;
  PipelinedKvSource& operator=(const PipelinedKvSource&) = delete;

  /// The next merged entry; the slices stay valid until the next call.
  /// False at the end of the input or on an input error (see status()).
  bool Next(Slice* key, Slice* value);
  /// The input iterator's status, meaningful once Next has returned false.
  [[nodiscard]] Status status() const;
  /// Entry batches handed from the producer to the consumer so far.
  [[nodiscard]] uint64_t batches() const;

 private:
  void ProducerLoop(Iterator* iter) EXCLUDES(mu_);
  /// Blocks while the queue is full; false once cancelled.
  bool PushBatch(std::string batch) EXCLUDES(mu_);

  const size_t batch_bytes_;
  const size_t max_queued_batches_;

  mutable Mutex mu_;
  CondVar producer_cv_{&mu_};  // queue has room / cancelled
  CondVar consumer_cv_{&mu_};  // batch ready / producer done
  std::deque<std::string> ready_ GUARDED_BY(mu_);
  bool done_ GUARDED_BY(mu_) = false;       // producer finished
  bool cancelled_ GUARDED_BY(mu_) = false;  // consumer tearing down
  Status producer_status_ GUARDED_BY(mu_);
  uint64_t batches_ GUARDED_BY(mu_) = 0;

  // unguarded: the batch being decoded is owned exclusively by the
  // consumer thread after it is popped, so it needs no locking.
  std::string current_;
  size_t cursor_ = 0;  // unguarded: consumer-owned (see current_)

  std::thread producer_;  // started last in the constructor
};

}  // namespace lsmio::lsm
