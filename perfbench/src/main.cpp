// perfbench: one end-to-end benchmark of the online forecasting path.
//
//   perfbench --workload <fleet_steady|fleet_storm|sched_adaptive>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints context lines, then as its last line one JSON object with exactly
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics (from a run with span recording on)
// with --trace 1. Exits 1 when a correctness check failed.
#include <cmath>
#include <iostream>
#include <string>

#include "metrics.h"
#include "obs/metrics.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void account_spans(const SpanRecorder& rec, Outcome& out, double tolerance) {
  const std::vector<Span> spans = rec.spans();
  double worst = 1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    if (dur <= 0.0) continue;
    const double ratio = tree_self_seconds(spans, static_cast<int>(i)) / dur;
    if (std::abs(ratio - 1.0) > std::abs(worst - 1.0)) worst = ratio;
  }
  out.layers["trace.self_time_coverage"] = worst;
  out.layers["trace.spans"] = static_cast<double>(spans.size());
  out.check(std::abs(worst - 1.0) <= tolerance,
            "span self times cover " + std::to_string(worst) +
                " of their root's duration");
  // Self time per span name, for reading where the traced time went.
  std::string line = "{\"spans\": {";
  bool first = true;
  for (const auto& [name, t] : by_name(spans)) {
    line += (first ? "" : ", ") + json_string(name) +
            ": {\"count\": " + std::to_string(t.count) +
            ", \"self_s\": " + std::to_string(t.self_s) +
            ", \"total_s\": " + std::to_string(t.total_s) + "}";
    first = false;
  }
  std::cout << line << "}}\n";
}

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <fleet_steady|fleet_storm|"
               "sched_adaptive> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload")
      args.workload = val;
    else if (key == "--seed")
      args.seed = std::stoull(val);
    else if (key == "--seconds")
      args.seconds = std::stod(val);
    else if (key == "--trace")
      args.trace = val == "1";
    else
      return usage();
  }
  if (args.seconds <= 0.0) return usage();

  rptcn::obs::set_enabled(true);
  SpanRecorder rec(args.trace);
  Outcome out;
  try {
    if (args.workload == "fleet_steady")
      out = run_fleet_steady(args, rec);
    else if (args.workload == "fleet_storm")
      out = run_fleet_storm(args, rec);
    else if (args.workload == "sched_adaptive")
      out = run_sched_adaptive(args, rec);
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  out.e2e.emplace("peak_rss_mb", peak_rss_mb());
  if (args.trace) {
    account_spans(rec, out, 1e-6);
    // The traced run's end-to-end figures, for the tracing overhead.
    std::string line = "{\"end_to_end\": {";
    for (const MetricDef& d : end_to_end_metrics()) {
      const auto it = out.e2e.find(d.name);
      line += std::string(line.back() == '{' ? "" : ", ") + json_string(d.name) +
              ": " + std::to_string(it == out.e2e.end() ? 0.0 : it->second);
    }
    std::cout << line << "}}\n";
  }

  Report report;
  report.attempted = out.attempted;
  report.failed = out.failed;
  const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = args.trace ? out.layers : out.e2e;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    // Layers a workload does not run read 0; every end-to-end metric must
    // have been measured.
    if (it == values.end()) out.check(args.trace, std::string("missing ") + d.name);
    report.add(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
  for (const Metric& m : report.metrics)
    out.check(std::isfinite(m.value), "non-finite metric " + m.name);
  if (!args.trace)
    for (const Metric& m : report.metrics)
      out.check(m.value > 0.0, "end-to-end metric " + m.name + " is not positive");
  report.correct = out.correct;
  std::cout << to_json(report) << std::endl;
  return out.correct ? 0 : 1;
}
