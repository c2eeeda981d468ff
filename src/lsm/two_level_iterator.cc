#include "lsm/two_level_iterator.h"

#include <memory>

namespace lsmio::lsm {
namespace {

class TwoLevelIterator final : public Iterator {
 public:
  TwoLevelIterator(
      Iterator* index_iter,
      std::function<Iterator*(const ReadOptions&, const Slice&)> block_function,
      const ReadOptions& options)
      : block_function_(std::move(block_function)),
        options_(options),
        index_iter_(index_iter) {}

  bool Valid() const override { return data_iter_ != nullptr && data_iter_->Valid(); }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }

  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToLast();
    SkipEmptyDataBlocksBackward();
  }

  void Next() override {
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  void Prev() override {
    data_iter_->Prev();
    SkipEmptyDataBlocksBackward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  void SaveError(const Status& s) {
    if (status_.ok() && !s.ok()) status_ = s;
  }

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void SkipEmptyDataBlocksBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToLast();
    }
  }

  void SetDataIterator(Iterator* iter) {
    if (data_iter_ != nullptr) SaveError(data_iter_->status());
    data_iter_.reset(iter);
  }

  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      SetDataIterator(nullptr);
      return;
    }
    const Slice handle = index_iter_->value();
    if (data_iter_ != nullptr && handle == data_block_handle_) {
      return;  // already positioned in this block
    }
    // Drop the current block first: its bytes may then be reused for the
    // next one.
    SetDataIterator(nullptr);
    data_block_handle_.assign(handle.data(), handle.size());
    SetDataIterator(block_function_(options_, handle));
  }

  std::function<Iterator*(const ReadOptions&, const Slice&)> block_function_;
  ReadOptions options_;
  Status status_;
  std::unique_ptr<Iterator> index_iter_;
  std::unique_ptr<Iterator> data_iter_;
  std::string data_block_handle_;
};

}  // namespace

Iterator* NewTwoLevelIterator(
    Iterator* index_iter,
    std::function<Iterator*(const ReadOptions&, const Slice&)> block_function,
    const ReadOptions& options) {
  return new TwoLevelIterator(index_iter, std::move(block_function), options);
}

}  // namespace lsmio::lsm
