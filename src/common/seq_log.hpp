// Per-thread-buffered, globally sequenced event log: the one recorder
// under hpc::Profiler and obs::Tracer.
//
// append() pushes onto the calling thread's own buffer for this log, found
// through a bounded thread-local cache keyed on a process-unique log id,
// so writers never contend on a shared mutex: the hot path is one relaxed
// fetch_add for the global seq and one push under an uncontended
// per-buffer lock. snapshot() merges the buffers and sorts by seq, which
// reconstructs the single global record order. Ids are never reused, so a
// cache entry left by a destroyed log never matches a later log built at
// the same address; an evicted entry only costs a fresh buffer.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace impress::common {

namespace seq_log_detail {
/// A fresh process-unique log id (never 0, never reused).
[[nodiscard]] std::uint64_t next_log_id() noexcept;
/// This thread's buffer for log `id`, or nullptr when it is not cached.
[[nodiscard]] void* find_thread_buffer(std::uint64_t id) noexcept;
/// Remember `buffer` as this thread's buffer for log `id`, evicting the
/// oldest entry when the cache is full.
void cache_thread_buffer(std::uint64_t id, void* buffer);
}  // namespace seq_log_detail

template <typename T>
class SeqLog {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    T value;
  };

  SeqLog() : id_(seq_log_detail::next_log_id()) {}
  SeqLog(const SeqLog&) = delete;
  SeqLog& operator=(const SeqLog&) = delete;

  /// Number `value` with the next seq and append it; returns the seq.
  std::uint64_t append(T value) {
    Buffer& buf = local_buffer();
    const std::uint64_t seq =
        next_seq_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(buf.mutex);
    buf.entries.emplace_back(seq, std::move(value));
    return seq;
  }

  /// Every entry, ordered by seq. Thread-safe point-in-time copy.
  [[nodiscard]] std::vector<Entry> snapshot() const {
    std::vector<Entry> out;
    for_each_buffer([&](std::vector<Entry>& entries) {
      out.insert(out.end(), entries.begin(), entries.end());
    });
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for_each_buffer([&](std::vector<Entry>& entries) { n += entries.size(); });
    return n;
  }

  template <typename Pred>
  [[nodiscard]] std::size_t count_if(Pred pred) const {
    std::size_t n = 0;
    for_each_buffer([&](std::vector<Entry>& entries) {
      for (const Entry& e : entries)
        if (pred(e.value)) ++n;
    });
    return n;
  }

  /// Drop every entry. Seqs keep counting from where they were.
  void clear() {
    for_each_buffer([](std::vector<Entry>& entries) { entries.clear(); });
  }

  /// The seq the next append() receives (1 for a fresh log).
  [[nodiscard]] std::uint64_t next_seq() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }
  /// Checkpoint resume: continue numbering at `seq`. Call before any
  /// concurrent use.
  void set_next_seq(std::uint64_t seq) noexcept {
    next_seq_.store(seq, std::memory_order_relaxed);
  }

 private:
  struct Buffer {
    std::mutex mutex;  // guards entries (writer vs concurrent reader)
    std::vector<Entry> entries;
  };

  /// This thread's buffer, created and registered on first use. Buffers
  /// live until the log is destroyed.
  [[nodiscard]] Buffer& local_buffer() {
    if (void* cached = seq_log_detail::find_thread_buffer(id_))
      return *static_cast<Buffer*>(cached);
    auto owned = std::make_unique<Buffer>();
    Buffer* raw = owned.get();
    {
      std::lock_guard lock(registry_mutex_);
      buffers_.push_back(std::move(owned));
    }
    seq_log_detail::cache_thread_buffer(id_, raw);
    return *raw;
  }

  /// Call `fn(entries)` for every buffer, each under its own lock.
  template <typename Fn>
  void for_each_buffer(Fn fn) const {
    std::lock_guard registry_lock(registry_mutex_);
    for (const auto& buf : buffers_) {
      std::lock_guard lock(buf->mutex);
      fn(buf->entries);
    }
  }

  const std::uint64_t id_;  ///< process-unique; keys the thread-local cache
  std::atomic<std::uint64_t> next_seq_{1};
  mutable std::mutex registry_mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace impress::common
