#include "sim/simulator.h"

#include <algorithm>

#include "common/error.h"

namespace mecsc::sim {

double RunResult::mean_delay_ms() const {
  if (slots.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : slots) s += r.avg_delay_ms;
  return s / static_cast<double>(slots.size());
}

double RunResult::mean_delay_incremental_ms() const {
  if (slots.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : slots) s += r.avg_delay_incremental_ms;
  return s / static_cast<double>(slots.size());
}

double RunResult::total_decision_time_ms() const {
  double s = 0.0;
  for (const auto& r : slots) s += r.decision_time_ms;
  return s;
}

double RunResult::mean_decision_time_ms() const {
  return slots.empty() ? 0.0
                       : total_decision_time_ms() / static_cast<double>(slots.size());
}

double RunResult::total_capacity_violation_mhz() const {
  double s = 0.0;
  for (const auto& r : slots) s += r.capacity_violation_mhz;
  return s;
}

double RunResult::tail_mean_delay_ms(std::size_t n) const {
  if (slots.empty()) return 0.0;
  n = std::min(n, slots.size());
  double s = 0.0;
  for (std::size_t i = slots.size() - n; i < slots.size(); ++i) {
    s += slots[i].avg_delay_ms;
  }
  return s / static_cast<double>(n);
}

Simulator::Simulator(const core::CachingProblem& problem,
                     const workload::DemandMatrix* demands,
                     net::NetworkDelayModel delay_model, common::Rng delay_rng,
                     bool track_regret)
    : problem_(&problem),
      demands_(demands),
      delay_model_(std::move(delay_model)),
      delay_rng_(delay_rng),
      track_regret_(track_regret) {
  MECSC_CHECK_MSG(demands_ != nullptr, "null demand matrix");
  MECSC_CHECK_MSG(demands_->num_requests() == problem.num_requests(),
                  "demand matrix / problem size mismatch");
  MECSC_CHECK_MSG(delay_model_.size() == problem.num_stations(),
                  "delay model / station count mismatch");
  horizon_ = demands_->horizon();
}

const std::vector<double>& Simulator::unit_delays(std::size_t t) const {
  MECSC_CHECK_MSG(t < horizon_, "unit_delays: slot past the horizon");
  std::lock_guard<std::mutex> lock(delays_mu_);
  while (unit_delays_.size() <= t) {
    unit_delays_.push_back(delay_model_.realize(delay_rng_));
  }
  return unit_delays_[t];
}

RunResult Simulator::run(algorithms::CachingAlgorithm& algorithm) const {
  RunResult result;
  result.algorithm = algorithm.name();
  result.slots.reserve(horizon_);

  SlotEngine engine(*problem_, track_regret_);
  if (fault_injector_ != nullptr) engine.set_fault_injector(fault_injector_);

  for (std::size_t t = 0; t < horizon_; ++t) {
    if (before_slot_) before_slot_(t);
    result.slots.push_back(
        engine.step(t, algorithm, demands_->slot(t), unit_delays(t)));
  }
  engine.end_run();
  if (track_regret_) result.cumulative_regret = engine.cumulative_regret();
  return result;
}

}  // namespace mecsc::sim
