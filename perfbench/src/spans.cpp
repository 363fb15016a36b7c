#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

int SpanRecorder::begin(const std::string& name, int parent,
                        std::uint64_t id) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t, t, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) covered[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) union_ns += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) union_ns += cur_b - cur_a;
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    out[i] = static_cast<double>(std::max<std::int64_t>(0, dur - union_ns)) *
             1e-9;
  }
  return out;
}

std::map<std::string, LayerTime> by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    t.self_s += self[i];
    t.total_s +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    ++t.count;
  }
  return out;
}

double tree_self_seconds(const std::vector<Span>& spans, int root) {
  const std::vector<double> self = self_seconds(spans);
  // Parents precede children in recording order, so one forward pass marks
  // every descendant of `root`.
  std::vector<char> in_tree(spans.size(), 0);
  double sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    const bool member = static_cast<int>(i) == root ||
                        (p >= 0 && in_tree[static_cast<std::size_t>(p)]);
    if (!member) continue;
    in_tree[i] = 1;
    sum += self[i];
  }
  return sum;
}

}  // namespace perfbench
