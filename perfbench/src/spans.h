// In-memory span recorder for the traced run, and the self-time arithmetic
// that attributes a span tree's wall time to layers.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public functions; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index of the causing span; -1 for a root
  std::uint64_t id = 0;   ///< tick / decision id shared by one request
};

/// Thread-safe. When disabled every call is a no-op returning -1, so the
/// untraced run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  /// Open a span now; returns its index (-1 when disabled).
  int begin(const std::string& name, int parent = -1, std::uint64_t id = 0);
  void end(int index);
  std::vector<Span> spans() const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, int parent = -1,
             std::uint64_t id = 0)
      : rec_(rec), index_(rec.begin(name, parent, id)) {}
  ~ScopedSpan() { rec_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanRecorder& rec_;
  int index_;
};

/// Per span: its duration minus the part of its interval that the union of
/// its children covers (children clipped to the parent), in seconds.
std::vector<double> self_seconds(const std::vector<Span>& spans);

struct LayerTime {
  double self_s = 0.0;
  double total_s = 0.0;
  std::size_t count = 0;
};

/// Self and total time summed per span name.
std::map<std::string, LayerTime> by_name(const std::vector<Span>& spans);

/// Sum of self times over the tree rooted at `root` — equals the root's
/// duration when no two siblings overlap.
double tree_self_seconds(const std::vector<Span>& spans, int root);

}  // namespace perfbench
