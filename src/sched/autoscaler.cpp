#include "sched/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rptcn::sched {

void AutoscalerOptions::validate() const {
  RPTCN_CHECK(headroom >= 1.0, "AutoscalerOptions.headroom must be >= 1");
  RPTCN_CHECK(cpu_floor >= 0.0 && mem_floor >= 0.0,
              "AutoscalerOptions floors must be >= 0");
  RPTCN_CHECK(cpu_cap > 0.0 && cpu_cap >= cpu_floor,
              "AutoscalerOptions.cpu_cap must be > 0 and >= cpu_floor");
  RPTCN_CHECK(mem_cap > 0.0 && mem_cap >= mem_floor,
              "AutoscalerOptions.mem_cap must be > 0 and >= mem_floor");
  RPTCN_CHECK(down_deadband >= 0.0 && down_deadband < 1.0,
              "AutoscalerOptions.down_deadband must be in [0, 1)");
}

namespace {

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

/// One resource's target; a non-finite demand targets `hold`.
double target(double demand, double headroom, double floor, double cap,
              double hold) {
  if (!std::isfinite(demand)) return hold;
  return clamp(std::max(demand, 0.0) * headroom, floor, cap);
}

/// One resource's decision: immediate up, dead-banded down.
double step(double current, double target, double deadband) {
  if (target > current) return target;
  if (target < current * (1.0 - deadband)) return target;
  return current;
}

}  // namespace

Autoscaler::Autoscaler(AutoscalerOptions options) : options_(options) {
  options_.validate();
}

Allocation Autoscaler::decide(const std::string& entity,
                              const ResourceForecast& demand_fraction) {
  const auto it = current_.find(entity);
  const bool seen = it != current_.end();
  if (!std::isfinite(demand_fraction.cpu) ||
      !std::isfinite(demand_fraction.mem))
    ++nonfinite_forecasts_;
  const double target_cpu =
      target(demand_fraction.cpu, options_.headroom, options_.cpu_floor,
             options_.cpu_cap, seen ? it->second.cpu : options_.cpu_cap);
  const double target_mem =
      target(demand_fraction.mem, options_.headroom, options_.mem_floor,
             options_.mem_cap, seen ? it->second.mem : options_.mem_cap);

  Allocation next;
  next.entity = entity;
  if (!seen) {
    next.cpu = target_cpu;
    next.mem = target_mem;
  } else {
    next.cpu = step(it->second.cpu, target_cpu, options_.down_deadband);
    next.mem = step(it->second.mem, target_mem, options_.down_deadband);
    if (next.cpu != it->second.cpu || next.mem != it->second.mem)
      ++scale_events_;
  }
  current_[entity] = next;
  return next;
}

void Autoscaler::reset() {
  current_.clear();
  scale_events_ = 0;
  nonfinite_forecasts_ = 0;
}

}  // namespace rptcn::sched
