#include "trace.hpp"

#include <cstdio>

namespace drumbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int32_t SpanLog::begin(const char* name, std::int64_t msg) {
  Open o;
  o.span.name = name;
  o.span.msg = msg;
  o.span.parent = stack_.empty() ? -1 : stack_.back().kept_index;
  if (kept_.size() < kKeep) {
    o.kept_index = static_cast<std::int32_t>(kept_.size());
    kept_.push_back(o.span);
  }
  o.span.start_ns = now_ns();
  stack_.push_back(o);
  return static_cast<std::int32_t>(stack_.size() - 1);
}

void SpanLog::end(std::int32_t handle) {
  const std::int64_t t = now_ns();
  // Spans close innermost first; a mismatched handle is a programming error
  // in the benchmark and is ignored rather than corrupting the stack.
  if (handle < 0 || static_cast<std::size_t>(handle) + 1 != stack_.size()) {
    return;
  }
  Open o = stack_.back();
  stack_.pop_back();
  o.span.end_ns = t;
  const std::int64_t dur = t - o.span.start_ns;
  SpanSummary& s = summary_[o.span.name];
  ++s.count;
  s.total_us += static_cast<double>(dur) * 1e-3;
  s.self_us += static_cast<double>(dur - o.child_ns) * 1e-3;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.kept_index >= 0) kept_[static_cast<std::size_t>(o.kept_index)] = o.span;
}

void SpanLog::event(const char* name, std::int64_t msg) {
  end(begin(name, msg));
}

std::map<std::string, SpanSummary> merge_summaries(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanSummary> out;
  for (const SpanLog* l : logs) {
    for (const auto& [name, s] : l->summary()) out[name].merge(s);
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->kept()) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"msg\":%lld}\n",
                   t, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.msg));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace drumbench
