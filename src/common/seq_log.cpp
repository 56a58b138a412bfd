#include "common/seq_log.hpp"

namespace impress::common::seq_log_detail {

namespace {

/// This thread's log id -> buffer map, oldest entry first.
struct TlsEntry {
  std::uint64_t id = 0;
  void* buffer = nullptr;
};
constexpr std::size_t kTlsCacheCap = 64;
thread_local std::vector<TlsEntry> tls_buffers;  // NOLINT

}  // namespace

std::uint64_t next_log_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void* find_thread_buffer(std::uint64_t id) noexcept {
  // Newest first: a thread that has outlived many logs keeps their dead
  // ids at the front, and the logs in use were cached last.
  for (auto it = tls_buffers.rbegin(); it != tls_buffers.rend(); ++it)
    if (it->id == id) return it->buffer;
  return nullptr;
}

void cache_thread_buffer(std::uint64_t id, void* buffer) {
  if (tls_buffers.size() >= kTlsCacheCap)
    tls_buffers.erase(tls_buffers.begin());
  tls_buffers.push_back(TlsEntry{id, buffer});
}

}  // namespace impress::common::seq_log_detail
