#include <algorithm>
#include <cstring>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {

namespace {

bool OutsideNesting(const char* name) {
  return std::strcmp(name, "task.queue_wait") == 0 || std::strcmp(name, "job.run") == 0;
}

}  // namespace

SpanStats AnalyzeTrace(const blaze::trace::Dump& dump) {
  SpanStats stats;
  stats.dropped = dump.total_dropped();
  for (const blaze::trace::ThreadDump& thread : dump.threads) {
    std::vector<const blaze::trace::Event*> spans;
    for (const blaze::trace::Event& event : thread.events) {
      if (event.phase != 'X' || event.name == nullptr) {
        continue;
      }
      stats.total_ms[event.name] += static_cast<double>(event.dur_us) / 1e3;
      if (!OutsideNesting(event.name)) {
        spans.push_back(&event);
      }
    }
    // Outer spans first: by start, and the longer of two spans that start
    // together encloses the other.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    struct Open {
      const blaze::trace::Event* span;
      uint64_t end_us;
      double covered_us;  // duration of the span's direct children
    };
    std::vector<Open> stack;
    const auto close = [&stats](const Open& open) {
      const double self_us =
          std::max(0.0, static_cast<double>(open.span->dur_us) - open.covered_us);
      stats.self_ms[open.span->name] += self_us / 1e3;
    };
    for (const blaze::trace::Event* span : spans) {
      const uint64_t end_us = span->ts_us + span->dur_us;
      while (!stack.empty() && stack.back().end_us <= span->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      // A span that starts inside the open one but outlives it (spans
      // completed with an earlier start time can do that) only takes the
      // overlapping part out of the parent's self time.
      while (!stack.empty() && stack.back().end_us < end_us) {
        stack.back().covered_us += static_cast<double>(stack.back().end_us - span->ts_us);
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        stack.back().covered_us += static_cast<double>(span->dur_us);
      }
      stack.push_back({span, end_us, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return stats;
}

}  // namespace perfbench
