// The three benchmark workloads. Each builds its inputs from args.seed,
// measures for about args.seconds, checks the program's outputs and
// returns its end-to-end and per-layer figures by metric name (the names
// and units are listed once, in metrics.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.h"
#include "spans.h"

namespace perfbench {

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;

  /// Fail the run and say why on stderr.
  void check(bool ok, const std::string& what);
};

Outcome run_fleet_steady(const RunArgs& args, SpanRecorder& rec);
Outcome run_fleet_storm(const RunArgs& args, SpanRecorder& rec);
Outcome run_sched_adaptive(const RunArgs& args, SpanRecorder& rec);

/// The self-time accounting of a traced run: for every root span, the self
/// times of its tree must add up to the root's duration within `tolerance`
/// (relative). Sets trace.self_time_coverage (the worst ratio) and
/// trace.spans, and fails the run when the check does not hold.
void account_spans(const SpanRecorder& rec, Outcome& out, double tolerance);

}  // namespace perfbench
