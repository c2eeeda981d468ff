#include "lsm/db_iter.h"

#include <memory>
#include <string>

#include "lsm/value_log.h"

namespace lsmio::lsm {
namespace {

// Which direction the iterator is moving. Forward: iter_ is positioned at
// the internal entry yielding the current user entry. Reverse: iter_ is
// positioned just before all entries of the current user key, and the
// current key/value are saved in saved_key_/saved_value_.
enum class Direction { kForward, kReverse };

class DBIter final : public Iterator {
 public:
  DBIter(const Comparator* user_comparator, Iterator* internal_iter,
         SequenceNumber sequence, const ValueLog* vlog)
      : user_comparator_(user_comparator),
        iter_(internal_iter),
        sequence_(sequence),
        vlog_(vlog) {}

  bool Valid() const override { return valid_; }

  Slice key() const override {
    return direction_ == Direction::kForward ? ExtractUserKey(iter_->key())
                                             : Slice(saved_key_);
  }

  Slice value() const override {
    const bool is_pointer = direction_ == Direction::kForward
                                ? current_is_pointer_
                                : saved_is_pointer_;
    const Slice raw = direction_ == Direction::kForward ? iter_->value()
                                                        : Slice(saved_value_);
    if (!is_pointer) return raw;
    // Resolve through the value log, once per position; key()-only scans
    // never pay the blob read.
    if (!resolved_) {
      resolved_ = true;
      resolve_status_ = vlog_ == nullptr
                            ? Status::Corruption("unresolvable value-log pointer")
                            : vlog_->ReadValue(raw, key(), &resolved_value_);
      if (!resolve_status_.ok() && status_.ok()) status_ = resolve_status_;
    }
    return resolve_status_.ok() ? Slice(resolved_value_) : Slice();
  }

  Status status() const override {
    return status_.ok() ? iter_->status() : status_;
  }

  void Next() override {
    if (!valid_) return;
    InvalidateResolvedValue();
    if (direction_ == Direction::kReverse) {
      direction_ = Direction::kForward;
      // iter_ is before the entries of saved_key_; advance onto them.
      if (!iter_->Valid()) iter_->SeekToFirst();
      else iter_->Next();
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        return;
      }
      // Skip remaining versions of saved_key_ inside FindNextUserEntry.
    } else {
      // Remember the current user key, then skip its other versions.
      SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
      iter_->Next();
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        return;
      }
    }
    FindNextUserEntry(/*skipping=*/true, &saved_key_);
  }

  void Prev() override {
    if (!valid_) return;
    InvalidateResolvedValue();
    if (direction_ == Direction::kForward) {
      // iter_ points at the current entry; back it up before all entries of
      // the current user key.
      SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
      for (;;) {
        iter_->Prev();
        if (!iter_->Valid()) {
          valid_ = false;
          saved_key_.clear();
          ClearSavedValue();
          return;
        }
        if (user_comparator_->Compare(ExtractUserKey(iter_->key()),
                                      Slice(saved_key_)) < 0) {
          break;
        }
      }
      direction_ = Direction::kReverse;
    }
    FindPrevUserEntry();
  }

  void Seek(const Slice& target) override {
    direction_ = Direction::kForward;
    InvalidateResolvedValue();
    ClearSavedValue();
    saved_key_.clear();
    AppendInternalKey(&saved_key_, target, sequence_, kValueTypeForSeek);
    iter_->Seek(Slice(saved_key_));
    if (iter_->Valid()) {
      saved_key_.clear();
      FindNextUserEntry(/*skipping=*/false, &saved_key_);
    } else {
      valid_ = false;
    }
  }

  void SeekToFirst() override {
    direction_ = Direction::kForward;
    InvalidateResolvedValue();
    ClearSavedValue();
    iter_->SeekToFirst();
    if (iter_->Valid()) {
      saved_key_.clear();
      FindNextUserEntry(/*skipping=*/false, &saved_key_);
    } else {
      valid_ = false;
    }
  }

  void SeekToLast() override {
    direction_ = Direction::kReverse;
    InvalidateResolvedValue();
    ClearSavedValue();
    iter_->SeekToLast();
    FindPrevUserEntry();
  }

 private:
  // Positions iter_ at the next visible, non-deleted user entry. When
  // `skipping`, entries with user key <= *skip are passed over.
  void FindNextUserEntry(bool skipping, std::string* skip) {
    do {
      ParsedInternalKey ikey;
      if (ParseIkey(&ikey) && ikey.sequence <= sequence_) {
        switch (ikey.type) {
          case ValueType::kDeletion:
            // All older versions of this key are shadowed.
            SaveKey(ikey.user_key, skip);
            skipping = true;
            break;
          case ValueType::kValue:
          case ValueType::kValuePointer:
            if (skipping &&
                user_comparator_->Compare(ikey.user_key, Slice(*skip)) <= 0) {
              break;  // shadowed by a newer deletion or already yielded
            }
            valid_ = true;
            current_is_pointer_ = ikey.type == ValueType::kValuePointer;
            saved_key_.clear();
            return;
        }
      }
      iter_->Next();
    } while (iter_->Valid());
    saved_key_.clear();
    valid_ = false;
  }

  // Scans backwards to position at the previous visible user entry, leaving
  // iter_ just before its versions and the entry in saved_key_/value_.
  void FindPrevUserEntry() {
    ValueType value_type = ValueType::kDeletion;  // pretend deletion at start
    if (iter_->Valid()) {
      do {
        ParsedInternalKey ikey;
        if (ParseIkey(&ikey) && ikey.sequence <= sequence_) {
          if (value_type != ValueType::kDeletion &&
              user_comparator_->Compare(ikey.user_key, Slice(saved_key_)) < 0) {
            break;  // we've moved past the entry we want
          }
          value_type = ikey.type;
          if (value_type == ValueType::kDeletion) {
            saved_key_.clear();
            ClearSavedValue();
          } else {
            SaveKey(ikey.user_key, &saved_key_);
            saved_value_.assign(iter_->value().data(), iter_->value().size());
            saved_is_pointer_ = ikey.type == ValueType::kValuePointer;
          }
        }
        iter_->Prev();
      } while (iter_->Valid());
    }

    if (value_type == ValueType::kDeletion) {
      valid_ = false;
      saved_key_.clear();
      ClearSavedValue();
      direction_ = Direction::kForward;
    } else {
      valid_ = true;
    }
  }

  bool ParseIkey(ParsedInternalKey* ikey) {
    if (!ParseInternalKey(iter_->key(), ikey)) {
      status_ = Status::Corruption("corrupted internal key in DBIter");
      return false;
    }
    return true;
  }

  static void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }

  void ClearSavedValue() {
    saved_value_.clear();
    saved_value_.shrink_to_fit();
    saved_is_pointer_ = false;
  }

  void InvalidateResolvedValue() {
    resolved_ = false;
    resolved_value_.clear();
    resolve_status_ = Status::OK();
    current_is_pointer_ = false;
  }

  const Comparator* const user_comparator_;
  std::unique_ptr<Iterator> iter_;
  SequenceNumber const sequence_;
  const ValueLog* const vlog_;

  mutable Status status_;
  std::string saved_key_;
  std::string saved_value_;
  Direction direction_ = Direction::kForward;
  bool valid_ = false;
  bool current_is_pointer_ = false;
  bool saved_is_pointer_ = false;
  // Lazy pointer-resolution cache for the current position (value() is
  // const; Valid()/key()/value() may not be called concurrently anyway).
  mutable bool resolved_ = false;
  mutable std::string resolved_value_;
  mutable Status resolve_status_;
};

}  // namespace

Iterator* NewDBIterator(const Comparator* user_comparator,
                        Iterator* internal_iter, SequenceNumber sequence,
                        const ValueLog* vlog) {
  return new DBIter(user_comparator, internal_iter, sequence, vlog);
}

}  // namespace lsmio::lsm
