#ifndef MECSC_SIM_SIMULATOR_H
#define MECSC_SIM_SIMULATOR_H

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/algorithm.h"
#include "core/problem.h"
#include "core/regret.h"
#include "fault/fault_injector.h"
#include "net/delay_process.h"
#include "obs/span.h"
#include "sim/slot_engine.h"
#include "workload/demand_model.h"

namespace mecsc::sim {

/// Result of running one algorithm over the horizon.
struct RunResult {
  /// Name of the algorithm that produced this run.
  std::string algorithm;
  /// One record per simulated slot, in slot order.
  std::vector<SlotRecord> slots;
  /// Filled when regret tracking is enabled.
  std::vector<double> cumulative_regret;

  /// Mean of SlotRecord::avg_delay_ms over the horizon.
  double mean_delay_ms() const;
  /// Mean of SlotRecord::avg_delay_incremental_ms over the horizon.
  double mean_delay_incremental_ms() const;
  /// Sum of the per-slot decide() wall-clocks (ms).
  double total_decision_time_ms() const;
  /// Mean decide() wall-clock per slot (ms).
  double mean_decision_time_ms() const;
  /// Sum of the per-slot capacity violations (MHz).
  double total_capacity_violation_mhz() const;
  /// Mean delay over the last `n` slots (steady-state view).
  double tail_mean_delay_ms(std::size_t n) const;
};

/// Time-slotted driver (paper §III): per slot it asks the algorithm to
/// decide, realises the slot's true demands and unit delays, scores the
/// decision ex post (Eq. 3 with realised values), and reveals the slot's
/// ground truth to the algorithm.
///
/// The true demand matrix is fixed at construction. The unit delays are
/// drawn slot by slot, in slot order, on first use, from the simulator's
/// own delay stream. Every algorithm and every caller therefore sees the
/// same sample path whatever order they read slots in, and a run that
/// reads 30 slots of a long horizon draws only those 30.
class Simulator {
 public:
  /// `delay_model` and `delay_rng` are positioned where slot 0's draw
  /// starts; unit_delays(t) is the (t+1)-th `delay_model.realize` call on
  /// that stream. Horizon = the demand matrix's horizon.
  Simulator(const core::CachingProblem& problem,
            const workload::DemandMatrix* demands,
            net::NetworkDelayModel delay_model, common::Rng delay_rng,
            bool track_regret = false);

  /// Number of slots a run() simulates.
  std::size_t horizon() const noexcept { return horizon_; }

  /// Hook invoked before every slot's decide() — used by mobility
  /// experiments to apply the slot's user states
  /// (CachingProblem::update_user_locations). The same hook runs for
  /// every algorithm, keeping sample paths identical.
  void set_before_slot(std::function<void(std::size_t)> hook) {
    before_slot_ = std::move(hook);
  }

  /// Attaches a fault injector (non-owning; must outlive the simulator's
  /// runs). Per slot the simulator then installs the plan's effective
  /// capacities before decide(), evicts cached instances from down
  /// stations, scores requests served at a down station with the plan's
  /// outage penalty, folds the admission-control shed penalty into the
  /// slot delay, and censors the algorithm's bandit feedback per the
  /// plan. Everything the injector does is precomputed from its
  /// deterministic plan, so runs stay replayable across algorithms and
  /// worker counts.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  /// Runs one algorithm over the full horizon. Each run drives a fresh
  /// SlotEngine over the realised demand matrix and unit delays, so
  /// repeated runs (and runs of different algorithms) are independent.
  RunResult run(algorithms::CachingAlgorithm& algorithm) const;

  /// Realised per-unit delays d_i(t) of slot t — the sample path live
  /// drivers (mecsc::serve) share with the batch runs of this scenario.
  /// Thread-safe; draws every not yet drawn slot up to t. The reference
  /// stays valid for the simulator's lifetime.
  const std::vector<double>& unit_delays(std::size_t t) const;

 private:
  const core::CachingProblem* problem_;
  const workload::DemandMatrix* demands_;
  mutable std::mutex delays_mu_;
  mutable net::NetworkDelayModel delay_model_;
  mutable common::Rng delay_rng_;
  // A deque: appending never moves the slots already handed out.
  mutable std::deque<std::vector<double>> unit_delays_;
  std::size_t horizon_;
  bool track_regret_;
  std::function<void(std::size_t)> before_slot_;
  fault::FaultInjector* fault_injector_ = nullptr;
};

}  // namespace mecsc::sim

#endif  // MECSC_SIM_SIMULATOR_H
