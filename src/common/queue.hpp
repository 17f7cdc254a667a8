// Bounded blocking multi-producer / multi-consumer queue, plus a
// single-producer / single-consumer ring-buffer fast path.
//
// These are the backbone of every inter-task channel in the engine
// simulators: Flink-sim network channels between unchained tasks and
// Apex-sim inter-container streams. Close semantics
// model end-of-stream: after close(), pops drain the remaining items and
// then fail.
//
// The batch operations (`push_batch` / `pop_batch`) move a whole vector of
// items under a single lock acquisition; per-record channel crossings are
// the dominant substrate cost at high throughput, so every engine adapter
// prefers the batch forms on its hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace dsps {

/// Outcome of a non-blocking push: distinguishes transient back-pressure
/// (kFull — retry later) from permanent shutdown (kClosed — stop producing).
/// [[nodiscard]]: ignoring the result conflates back-pressure with shutdown
/// and silently drops records — every caller must branch on it.
enum class [[nodiscard]] QueuePushResult { kOk, kFull, kClosed };

/// Outcome of a non-blocking pop: kEmpty means "nothing right now, more may
/// come"; kDrained means the queue is closed and fully consumed.
enum class [[nodiscard]] QueuePopResult { kOk, kEmpty, kDrained };

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    require(capacity > 0, "BoundedQueue capacity must be positive");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until space is available. Returns false if the queue was closed.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    wait_not_full(lock);
    if (closed_) return false;
    items_.push_back(std::move(item));
    const bool wake = waiting_poppers_ > 0;
    lock.unlock();
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Moves every item of `items` into the queue, taking the lock once per
  /// free-capacity chunk instead of once per item. Blocks while full —
  /// close() interrupts the wait promptly, so a producer is never wedged on
  /// a dead consumer. Returns the number of items accepted; short only when
  /// the queue is closed mid-batch (the remainder is dropped, as with a
  /// failed push). [[nodiscard]]: a short count is the only signal the tail
  /// of the batch was dropped — every call site must observe it.
  [[nodiscard]] std::size_t push_batch(std::vector<T>&& items) {
    std::size_t pushed = 0;
    std::unique_lock lock(mutex_);
    while (pushed < items.size()) {
      wait_not_full(lock);
      if (closed_) break;
      const std::size_t room = capacity_ - items_.size();
      const std::size_t n = std::min(items.size() - pushed, room);
      for (std::size_t i = 0; i < n; ++i) {
        items_.push_back(std::move(items[pushed + i]));
      }
      pushed += n;
      if (pushed == items.size()) {
        const bool wake = waiting_poppers_ > 0;
        lock.unlock();
        if (wake) not_empty_.notify_all();
        return pushed;
      }
      // More to push once a popper frees space; wake poppers before waiting.
      if (waiting_poppers_ > 0) not_empty_.notify_all();
    }
    return pushed;
  }

  /// Non-blocking push. kFull leaves the queue unchanged (the item is
  /// discarded, as with a failed blocking push).
  QueuePushResult try_push(T item) {
    std::unique_lock lock(mutex_);
    if (closed_) return QueuePushResult::kClosed;
    if (items_.size() >= capacity_) return QueuePushResult::kFull;
    items_.push_back(std::move(item));
    const bool wake = waiting_poppers_ > 0;
    lock.unlock();
    if (wake) not_empty_.notify_one();
    return QueuePushResult::kOk;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    wait_not_empty(lock);
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    const bool wake = waiting_pushers_ > 0;
    lock.unlock();
    if (wake) not_full_.notify_one();
    return item;
  }

  /// Blocks until at least one item is available (or the queue is drained),
  /// then moves up to `max_items` into `out` under the one lock acquisition.
  /// Returns the number appended; 0 means closed and drained.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    if (max_items == 0) return 0;
    std::unique_lock lock(mutex_);
    wait_not_empty(lock);
    const std::size_t n = std::min(max_items, items_.size());
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    const bool wake = n > 0 && waiting_pushers_ > 0;
    lock.unlock();
    if (wake) not_full_.notify_all();  // a batch frees many slots
    return n;
  }

  /// Non-blocking pop into `out`. kEmpty and kDrained both leave `out`
  /// untouched; only kDrained is final.
  QueuePopResult try_pop(T& out) {
    std::unique_lock lock(mutex_);
    if (items_.empty()) {
      return closed_ ? QueuePopResult::kDrained : QueuePopResult::kEmpty;
    }
    out = std::move(items_.front());
    items_.pop_front();
    const bool wake = waiting_pushers_ > 0;
    lock.unlock();
    if (wake) not_full_.notify_one();
    return QueuePopResult::kOk;
  }

  /// Marks the queue closed. Pending and future pushes fail; pops drain.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  /// True once the queue is closed and every item has been popped.
  bool is_drained() const {
    std::lock_guard lock(mutex_);
    return closed_ && items_.empty();
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  // Waits tracking the waiter count so producers/consumers only pay for a
  // notify when somebody can actually make progress.
  void wait_not_full(std::unique_lock<std::mutex>& lock) {
    while (!closed_ && items_.size() >= capacity_) {
      ++waiting_pushers_;
      not_full_.wait(lock);
      --waiting_pushers_;
    }
  }

  void wait_not_empty(std::unique_lock<std::mutex>& lock) {
    while (!closed_ && items_.empty()) {
      ++waiting_poppers_;
      not_empty_.wait(lock);
      --waiting_poppers_;
    }
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t waiting_poppers_ = 0;
  std::size_t waiting_pushers_ = 0;
  bool closed_ = false;
};

/// Lock-free single-producer / single-consumer ring buffer with the same
/// close/drain contract as BoundedQueue. Head and tail live on their own
/// cache lines so the producer and consumer never false-share; each side
/// additionally caches the other's index and only re-reads it when the ring
/// looks full/empty, keeping the common case to one uncontended store.
///
/// Exactly one thread may push and exactly one may pop (close() is safe from
/// the producer or a coordinator). Used for engine channels that are
/// provably single-writer, e.g. Flink-sim FORWARD edges.
template <typename T>
class SpscRingQueue {
  static_assert(std::is_default_constructible_v<T>,
                "ring slots are default-constructed");

 public:
  explicit SpscRingQueue(std::size_t min_capacity) {
    require(min_capacity > 0, "SpscRingQueue capacity must be positive");
    std::size_t capacity = 1;
    while (capacity < min_capacity) capacity <<= 1;
    buffer_.resize(capacity);
    mask_ = capacity - 1;
  }

  SpscRingQueue(const SpscRingQueue&) = delete;
  SpscRingQueue& operator=(const SpscRingQueue&) = delete;

  /// Blocks (spin, then yield, then sleep) until space is available.
  /// Returns false if the queue was closed.
  bool push(T item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    unsigned spins = 0;
    while (tail - cached_head_ >= buffer_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ < buffer_.size()) break;
      if (closed_.load(std::memory_order_acquire)) return false;
      backoff(spins);
    }
    buffer_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Moves every item into the ring, publishing each free-space chunk with a
  /// single release store. Returns the number accepted (short on close).
  /// [[nodiscard]]: see BoundedQueue::push_batch.
  [[nodiscard]] std::size_t push_batch(std::vector<T>&& items) {
    std::size_t pushed = 0;
    while (pushed < items.size()) {
      if (closed_.load(std::memory_order_acquire)) return pushed;
      const std::size_t tail = tail_.load(std::memory_order_relaxed);
      std::size_t free = buffer_.size() - (tail - cached_head_);
      unsigned spins = 0;
      while (free == 0) {
        cached_head_ = head_.load(std::memory_order_acquire);
        free = buffer_.size() - (tail - cached_head_);
        if (free > 0) break;
        if (closed_.load(std::memory_order_acquire)) return pushed;
        backoff(spins);
      }
      const std::size_t n = std::min(free, items.size() - pushed);
      for (std::size_t i = 0; i < n; ++i) {
        buffer_[(tail + i) & mask_] = std::move(items[pushed + i]);
      }
      tail_.store(tail + n, std::memory_order_release);
      pushed += n;
    }
    return pushed;
  }

  QueuePushResult try_push(T item) {
    if (closed_.load(std::memory_order_acquire)) {
      return QueuePushResult::kClosed;
    }
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= buffer_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= buffer_.size()) return QueuePushResult::kFull;
    }
    buffer_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return QueuePushResult::kOk;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    unsigned spins = 0;
    while (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head != cached_tail_) break;
      if (closed_.load(std::memory_order_acquire)) {
        // The producer publishes its last items before close(); observing
        // closed_ (acquire) therefore makes the final tail visible.
        cached_tail_ = tail_.load(std::memory_order_acquire);
        if (head == cached_tail_) return std::nullopt;  // drained
        break;
      }
      backoff(spins);
    }
    T item = std::move(buffer_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return item;
  }

  /// Blocks until at least one item is available (or drained), then moves up
  /// to `max_items` into `out`. Returns the number appended; 0 means drained.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    if (max_items == 0) return 0;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = cached_tail_ - head;
    unsigned spins = 0;
    while (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail > 0) break;
      if (closed_.load(std::memory_order_acquire)) {
        cached_tail_ = tail_.load(std::memory_order_acquire);
        avail = cached_tail_ - head;
        if (avail == 0) return 0;  // drained
        break;
      }
      backoff(spins);
    }
    const std::size_t n = std::min(avail, max_items);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(buffer_[(head + i) & mask_]));
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  QueuePopResult try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) {
        if (!closed_.load(std::memory_order_acquire)) {
          return QueuePopResult::kEmpty;
        }
        cached_tail_ = tail_.load(std::memory_order_acquire);
        if (head == cached_tail_) return QueuePopResult::kDrained;
      }
    }
    out = std::move(buffer_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return QueuePopResult::kOk;
  }

  void close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  bool is_drained() const {
    return closed() && tail_.load(std::memory_order_acquire) ==
                           head_.load(std::memory_order_acquire);
  }

  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const noexcept { return buffer_.size(); }

 private:
  static void backoff(unsigned& spins) {
    ++spins;
    if (spins < 64) {
      // Busy-spin: the peer is typically one cache miss away.
    } else if (spins < 256) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  std::vector<T> buffer_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // next index to pop
  alignas(64) std::atomic<std::size_t> tail_{0};  // next index to push
  alignas(64) std::atomic<bool> closed_{false};
  alignas(64) std::size_t cached_head_ = 0;  // producer-side view of head_
  alignas(64) std::size_t cached_tail_ = 0;  // consumer-side view of tail_
};

}  // namespace dsps
