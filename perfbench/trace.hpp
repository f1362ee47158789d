// In-memory spans for the traced run. One SpanLog per thread; no locks.
//
// A span records a call into one layer's public function: its name, start,
// end, the span that caused it (its parent, in the same thread) and the
// message sequence number where there is one. Every span feeds a running
// per-name summary (count, total and self time); the first kKeep spans of
// each thread are also kept verbatim and written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace drumbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same log, -1 for a root
  std::int64_t msg = -1;     ///< message sequence number, -1 for none
};

struct SpanSummary {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;

  [[nodiscard]] double mean_us() const {
    return count ? total_us / static_cast<double>(count) : 0.0;
  }
  void merge(const SpanSummary& o) {
    count += o.count;
    total_us += o.total_us;
    self_us += o.self_us;
  }
};

class SpanLog {
 public:
  static constexpr std::size_t kKeep = 50000;

  /// Opens a span; returns its handle for end(). Spans nest: the innermost
  /// open span is the parent.
  std::int32_t begin(const char* name, std::int64_t msg = -1);
  void end(std::int32_t handle);
  /// A zero-length event span under the innermost open span.
  void event(const char* name, std::int64_t msg);

  [[nodiscard]] const std::map<std::string, SpanSummary>& summary() const {
    return summary_;
  }
  [[nodiscard]] const std::vector<Span>& kept() const { return kept_; }

 private:
  struct Open {
    Span span;
    std::int32_t kept_index = -1;
    std::int64_t child_ns = 0;
  };
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::map<std::string, SpanSummary> summary_;
};

/// RAII span around one call.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, std::int64_t msg = -1)
      : log_(log), h_(log ? log->begin(name, msg) : -1) {}
  ~Scoped() {
    if (log_) log_->end(h_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::int32_t h_;
};

/// Merged per-name summaries of several logs.
std::map<std::string, SpanSummary> merge_summaries(
    const std::vector<const SpanLog*>& logs);

/// Writes every kept span as one JSON object per line to `path`; returns
/// false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace drumbench
