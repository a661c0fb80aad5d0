#include "sim/scenario.h"

#include <algorithm>
#include <cstdlib>

#include "common/error.h"

namespace mecsc::sim {

Scenario::Scenario(const ScenarioParams& params) : params_(params) {
  MECSC_CHECK_MSG(params.horizon > 0, "horizon must be > 0");
  aggregate_mode_ = core::resolve_aggregate_mode(params.aggregate);
  solver_tier_ = core::resolve_solver_tier(params.solver);
  common::Rng root(params.seed);
  common::Rng topo_rng = root.split();
  common::Rng workload_rng = root.split();
  common::Rng problem_rng = root.split();
  common::Rng demand_rng = root.split();
  common::Rng delay_rng = root.split();
  common::Rng trace_rng = root.split();
  algo_seed_root_ = root.split().seed();
  // Drawn unconditionally (appending a split never perturbs the streams
  // above) so a faults-on run shares the exact topology / workload /
  // delay sample paths of its faults-off twin.
  const std::uint64_t fault_seed = root.split().seed();

  switch (params.net) {
    case ScenarioParams::NetKind::kGtItm: {
      net::GtItmParams gp;
      gp.num_stations = params.num_stations;
      topology_ = std::make_unique<net::Topology>(generate_gtitm_like(gp, topo_rng));
      break;
    }
    case ScenarioParams::NetKind::kAs1755: {
      net::As1755Params ap;
      ap.num_stations = params.num_stations;
      topology_ = std::make_unique<net::Topology>(generate_as1755_like(ap, topo_rng));
      break;
    }
  }

  workload::WorkloadParams wp = params.workload;
  const std::size_t total_horizon = params.history_horizon + params.horizon;
  wp.horizon = total_horizon;
  workload_ = workload::make_workload(*topology_, wp, workload_rng, params.bursty);

  // One combined realisation keeps demand processes' state consistent:
  // each request's first history_horizon slots go to the historical
  // trace, the rest straight into the run-time ground truth.
  const std::size_t num_requests = workload_.requests.size();
  demands_ = std::make_unique<workload::DemandMatrix>(num_requests, params.horizon);
  std::unique_ptr<workload::DemandMatrix> hist;
  if (params.history_horizon > 0) {
    hist = std::make_unique<workload::DemandMatrix>(num_requests,
                                                    params.history_horizon);
  }
  workload::SlotTotals totals;
  workload::realize_demands_into(workload_.requests, workload_.processes,
                                 demand_rng, hist.get(), *demands_, &totals);
  if (hist != nullptr) {
    trace_ = std::make_unique<workload::Trace>(workload::Trace::from_demands(
        workload_.requests, *hist, wp.num_clusters, params.trace_sample_fraction,
        trace_rng));
  } else {
    // Degenerate one-slot trace from the first run slot.
    workload::DemandMatrix first(num_requests, 1);
    for (std::size_t l = 0; l < num_requests; ++l) {
      first.set(l, 0, demands_->at(l, 0));
    }
    trace_ = std::make_unique<workload::Trace>(workload::Trace::from_demands(
        workload_.requests, first, wp.num_clusters, 1.0, trace_rng));
  }

  // Uphold the paper's §III.E feasibility assumption for every realised
  // slot: if the burstiest slot would not fit at the requested C_unit,
  // derate C_unit (deterministically, from the realised demands) so the
  // worst slot uses at most 90% of aggregate capacity and every single
  // request fits the largest station. The chosen value is exposed via
  // problem().options().c_unit_mhz.
  core::ProblemOptions popt = params.problem;
  {
    const double worst_slot_units = totals.sum[totals.worst_slot()];
    const double worst_single = totals.max_single;
    double biggest_station = 0.0;
    for (const auto& bs : topology_->stations()) {
      biggest_station = std::max(biggest_station, bs.capacity_mhz);
    }
    double limit = popt.c_unit_mhz;
    if (worst_slot_units > 0.0) {
      limit = std::min(limit, 0.9 * topology_->total_capacity_mhz() / worst_slot_units);
    }
    if (worst_single > 0.0) {
      limit = std::min(limit, 0.9 * biggest_station / worst_single);
    }
    c_unit_derated_ = limit < popt.c_unit_mhz;
    popt.c_unit_mhz = std::min(popt.c_unit_mhz, limit);
  }

  problem_ = std::make_unique<core::CachingProblem>(
      topology_.get(), workload_.services, workload_.requests, popt, problem_rng);

  // Fault injection: materialise the plan and bake flash crowds +
  // admission-control shedding into the shared demand matrix now, so the
  // feasibility check below and every algorithm see the same post-fault
  // sample path.
  fault::FaultOptions fopt = params.fault;
  if (const char* env = std::getenv("MECSC_FAULTS");
      params.fault_env_override && env != nullptr && *env != '\0') {
    fopt.mode = fault::mode_from_env();
  }
  if (fopt.mode != fault::FaultMode::kOff) {
    fault_injector_ = std::make_unique<fault::FaultInjector>(
        *problem_,
        fault::FaultPlan::generate(*topology_, params.horizon, fopt, fault_seed));
    fault_injector_->apply_to_demands(*demands_);
    totals = workload::slot_totals(*demands_);
  }

  net::NetworkDelayModel delay_model =
      net::make_delay_model(*topology_, params.delay_kind, delay_rng);
  d_min_ = delay_model.global_min();
  d_max_ = delay_model.global_max();
  theta_prior_ = 0.5 * (d_min_ + d_max_);

  // The baselines' stale historical measurement precedes the run.
  historical_estimates_ = delay_model.realize(delay_rng);

  // Validate the paper's standing feasibility assumption on the heaviest
  // slot up front, so misconfigured experiments fail fast.
  problem_->check_capacity_feasible(demands_->slot(totals.worst_slot()));

  // The run's unit delays continue the same stream, drawn per slot on
  // first use.
  simulator_ = std::make_unique<Simulator>(*problem_, demands_.get(),
                                           std::move(delay_model), delay_rng,
                                           params.track_regret);
  if (fault_injector_ != nullptr) {
    simulator_->set_fault_injector(fault_injector_.get());
  }
}

std::uint64_t Scenario::algorithm_seed(std::size_t index) const {
  common::Rng r(algo_seed_root_ + 0x9e3779b97f4a7c15ULL * (index + 1));
  return r.split().seed();
}

}  // namespace mecsc::sim
