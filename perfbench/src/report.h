// The benchmark's result line: exactly {correct, attempted, failed,
// metrics}, every metric as {"value": <number>, "unit": <string>}.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// One-line JSON. Values keep every digit (%.17g); a non-finite value is
/// written as null, which no reader accepts as a measurement.
std::string to_json(const Report& r);

/// Minimal JSON string escaping for names and context fields.
std::string json_string(const std::string& s);

}  // namespace perfbench
