#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::vector<double> chunk_quantiles(const std::vector<double>& v, double q,
                                    std::size_t chunk) {
  if (chunk == 0 || v.size() < 2 * chunk) return {quantile(v, q)};
  std::vector<double> out;
  const std::size_t chunks = v.size() / chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(c * chunk);
    const auto last = c + 1 == chunks ? v.end() : first + static_cast<std::ptrdiff_t>(chunk);
    out.push_back(quantile(std::vector<double>(first, last), q));
  }
  return out;
}

double highest_percentile(std::size_t n, std::size_t min_beyond) {
  constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return p;
  }
  return 0.0;
}

bool backlog_growing(const std::vector<double>& samples, double slack) {
  const std::size_t quarter = samples.size() / 4;
  if (quarter == 0) return false;
  double head = 0.0;
  double tail = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    head += samples[i];
    tail += samples[samples.size() - 1 - i];
  }
  head /= static_cast<double>(quarter);
  tail /= static_cast<double>(quarter);
  return tail > 2.0 * head + slack;
}

bool rung_valid(const RungResult& r, double max_late_ms) {
  return r.sent > 0 && r.gen_late_p99_ms <= max_late_ms;
}

bool rung_sustainable(const RungResult& r, double limit_ms) {
  // Slack: 20 ms worth of offered ticks, so one short stall near the end of
  // a rung does not read as a trend.
  return r.latencies > 0 && r.p99_ms <= limit_ms && r.shed == 0 &&
         r.failed == 0 &&
         !backlog_growing(r.backlog, std::max(16.0, 0.02 * r.offered_per_s));
}

RateLadder::RateLadder(double start, double factor, double ceiling,
                       int refine_steps)
    : factor_(factor), ceiling_(ceiling), floor_(start / 8.0),
      refine_left_(refine_steps), next_(start) {
  done_ = start <= 0.0 || start > ceiling || factor <= 1.0;
}

void RateLadder::record(bool sustainable) {
  if (done_) return;
  if (sustainable)
    lo_ = std::max(lo_, next_);
  else
    hi_ = hi_ == 0.0 ? next_ : std::min(hi_, next_);
  if (hi_ == 0.0) {  // climbing: every rung so far was sustainable
    const double up = next_ * factor_;
    if (up > ceiling_) {
      hit_ceiling_ = true;
      done_ = true;
    } else {
      next_ = up;
    }
    return;
  }
  if (lo_ == 0.0) {  // descending: every rung so far failed
    const double down = next_ / factor_;
    if (down < floor_)
      done_ = true;
    else
      next_ = down;
    return;
  }
  // Refining between the highest pass and the lowest failure.
  if (refine_left_ <= 0) {
    done_ = true;
    return;
  }
  --refine_left_;
  next_ = std::sqrt(lo_ * hi_);
}

}  // namespace perfbench
