// Flat circular deque used on the simulator hot path.
//
// std::deque pays a block-map indirection on every access and two heap
// allocations on construction; the engine's queues (pending arrivals, ready
// coroutines, runtime mailboxes) sit in one contiguous power-of-two ring
// instead. Grows geometrically; never shrinks, so a warm queue refilled to
// its high-water mark never allocates. Only the operations the simulator
// needs are provided.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace logp::util {

template <typename T>
class RingDeque {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  /// Element i positions from the front.
  T& operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
  const T& operator[](std::size_t i) const { return buf_[wrap(head_ + i)]; }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }

  void push_front(T v) {
    if (size_ == buf_.size()) grow();
    head_ = wrap(head_ + buf_.size() - 1);
    buf_[head_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    if constexpr (!std::is_trivially_destructible_v<T>)
      buf_[head_] = T{};  // release resources held by the slot
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Removes element i (i < size()) by shifting the elements behind it down
  /// one slot: O(1) at the front, O(size - i) elsewhere.
  void erase(std::size_t i) {
    if (i == 0) {
      pop_front();
      return;
    }
    for (std::size_t j = i + 1; j < size_; ++j)
      (*this)[j - 1] = std::move((*this)[j]);
    if constexpr (!std::is_trivially_destructible_v<T>)
      (*this)[size_ - 1] = T{};
    --size_;
  }

 private:
  std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

  /// Doubles the ring, starting from one slot as std::vector does: most
  /// mailboxes stay a message or two deep, and each slot is value-initialized.
  void grow() {
    std::vector<T> next(buf_.empty() ? 1 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace logp::util
