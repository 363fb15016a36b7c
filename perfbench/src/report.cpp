#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string to_json(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char num[64];
    if (std::isfinite(m.value))
      std::snprintf(num, sizeof(num), "%.17g", m.value);
    else
      std::snprintf(num, sizeof(num), "null");
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + num +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
