// InlineVector: a vector whose first N elements live inside the object.
//
// The read path builds a few short lists per lookup (the requests of one
// table probe, the blocks and keys of one table, the value pointers to
// resolve). Declared as locals, these stay in the caller's stack frame up
// to N elements, so a point lookup touches the heap only for the data it
// reads; a longer list moves to the heap once, past N.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

namespace lsmio {

/// Pointers and references to elements stay valid until the next push_back
/// or clear.
template <typename T, size_t N>
class InlineVector {
  // The inline slots are raw storage that is written before it is read, so
  // constructing the vector costs nothing however large N is.
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  InlineVector() = default;
  InlineVector(const InlineVector&) = delete;
  InlineVector& operator=(const InlineVector&) = delete;

  void push_back(const T& value) {
    if (size_ < N) {
      slots()[size_] = value;
    } else {
      if (size_ == N) heap_.assign(slots(), slots() + N);
      heap_.push_back(value);
    }
    ++size_;
  }

  void clear() {
    size_ = 0;
    heap_.clear();
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_t size() const { return size_; }

  T* data() { return size_ <= N ? slots() : heap_.data(); }
  const T* data() const { return size_ <= N ? slots() : heap_.data(); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& back() { return data()[size_ - 1]; }

 private:
  T* slots() { return reinterpret_cast<T*>(storage_); }
  const T* slots() const { return reinterpret_cast<const T*>(storage_); }

  alignas(T) std::byte storage_[N * sizeof(T)];  // elements while size_ <= N
  std::vector<T> heap_;                          // every element past that
  size_t size_ = 0;
};

}  // namespace lsmio
