// Sample statistics and the open-loop rate-ladder rules of the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& v);

/// The q-quantile of each consecutive chunk of `chunk` samples, in
/// recording order; a trailing partial chunk joins the one before. With
/// fewer than two chunks' worth of samples, one value: the plain quantile.
std::vector<double> chunk_quantiles(const std::vector<double>& v, double q,
                                    std::size_t chunk);

/// Quantile across chunks (or trials) that the timing metrics report: the
/// lower quartile, i.e. the quieter quarter of a run. Other tenants of a
/// shared host only ever add time, so the quieter quarter is the closest to
/// the program's own speed and is moved by none of the noisier three.
inline constexpr double kQuietQuantile = 0.25;

/// The highest of the percentiles 50, 90, 99, 99.9, 99.99 that leaves at
/// least `min_beyond` of `n` samples above it; 0 when even p50 does not.
double highest_percentile(std::size_t n, std::size_t min_beyond = 10);

/// One rung of the open-loop ladder, as the generator saw it.
struct RungResult {
  double offered_per_s = 0.0;
  double seconds = 0.0;          ///< scheduled length of the rung
  double elapsed_s = 0.0;        ///< measured: first send to last send
  std::uint64_t sent = 0;        ///< ingest() calls
  std::uint64_t accepted = 0;    ///< Admission::kAccepted
  std::uint64_t shed = 0;        ///< every other verdict
  std::uint64_t failed = 0;      ///< forecast failures + non-finite forecasts
  std::size_t latencies = 0;     ///< tick-to-forecast samples in the rung
  /// Latency quantiles per 1000-tick chunk, and their kQuietQuantile
  /// across the rung's chunks.
  std::vector<double> chunks_p50;
  std::vector<double> chunks_p90;
  std::vector<double> chunks_p99;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double queue_wait_us = 0.0;    ///< engine queue wait, mean per request
  double forward_us = 0.0;       ///< engine forward, mean per batch
  double gen_late_p99_ms = 0.0;  ///< generator lateness versus schedule
  std::vector<double> backlog;   ///< queued_ticks, sampled through the rung
};

/// True when the sampled backlog climbs over the rung: the mean of its last
/// quarter exceeds twice the mean of its first quarter plus `slack` ticks.
bool backlog_growing(const std::vector<double>& samples, double slack = 16.0);

/// A rung is scored only when the generator kept to its schedule.
bool rung_valid(const RungResult& r, double max_late_ms);

/// Sustainable: p99 within the limit, nothing shed or failed, backlog flat
/// (slack: the larger of 16 ticks and 20 ms of offered ticks).
bool rung_sustainable(const RungResult& r, double limit_ms);

/// Geometric ladder of offered rates. It climbs by `factor` from `start`
/// until the first rung that is not sustainable or the next rate would pass
/// `ceiling`, then bisects (geometrically) between the highest sustainable
/// and the lowest failing rate `refine_steps` times. When `start` itself
/// fails it descends by `factor` instead, down to start / 8, and refines
/// above the first rate that passes.
class RateLadder {
 public:
  RateLadder(double start, double factor, double ceiling, int refine_steps);

  bool done() const { return done_; }
  /// The rate of the next rung to run (undefined once done()).
  double rate() const { return next_; }
  /// Record the outcome of the rung run at rate().
  void record(bool sustainable);
  /// Highest sustainable rate seen; 0 when none was.
  double sustainable() const { return lo_; }
  /// Lowest failing rate seen; 0 when every rung passed.
  double failing() const { return hi_; }
  bool hit_ceiling() const { return hit_ceiling_; }

 private:
  double factor_;
  double ceiling_;
  double floor_;
  int refine_left_;
  double next_;
  double lo_ = 0.0;
  double hi_ = 0.0;
  bool done_ = false;
  bool hit_ceiling_ = false;
};

}  // namespace perfbench
