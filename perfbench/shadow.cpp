#include "shadow.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "core/rounding.h"

namespace perfbench {

namespace core = mecsc::core;

namespace {

// The aggregation decision decide() makes from its options (ol_gd.cpp).
bool aggregates(const mecsc::algorithms::OlOptions& options,
                std::size_t num_requests) {
  switch (options.aggregate) {
    case core::AggregateMode::kOn:
      return true;
    case core::AggregateMode::kAuto:
      return num_requests >= options.aggregation.auto_threshold;
    default:
      return false;
  }
}

// Times `fn` into `ms` and records it as a child span of `parent`.
template <typename Fn>
void timed(SpanRecorder* spans, const char* name, long slot, int parent,
           double& ms, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  ms += ms_between(start, end);
  if (spans != nullptr) spans->add(name, slot, parent, start, end);
}

}  // namespace

ShadowReplay::ShadowReplay(const core::CachingProblem& problem,
                           const mecsc::algorithms::OlOptions& options)
    : problem_(&problem),
      options_(options),
      aggregate_(aggregates(options, problem.num_requests())),
      flow_(problem),
      lagrangian_(problem, options.lagrangian) {
  MECSC_CHECK_MSG(options.aggregate != core::AggregateMode::kEnv &&
                      options.solver != core::SolverTier::kEnv &&
                      !options.use_exact_lp && options.ucb_beta == 0.0,
                  "shadow replay needs pinned aggregation/tier and no UCB");
}

ShadowSlot ShadowReplay::replay(std::size_t t,
                                const mecsc::algorithms::OlGdState& before,
                                const mecsc::algorithms::OnlineCachingAlgorithm& algo,
                                const core::Assignment& decision,
                                SpanRecorder* spans, int parent_span) {
  mecsc::obs::ScopedRegistry scope(&registry_);
  const long slot = static_cast<long>(t);
  ShadowSlot out;
  const std::vector<double>& demands = algo.last_demands();
  const std::vector<double>& theta = before.bandit_theta;
  const core::SolverTier tier = algo.last_solver_tier();
  const int depth = algo.last_fallback_depth();

  if (aggregate_) {
    timed(spans, "core.aggregation.build", slot, parent_span, out.classing_ms,
          [&] { classing_.build(*problem_, demands, options_.aggregation); });
    out.classes = classing_.num_classes();
  }
  if (out.classes != algo.last_num_classes()) {
    out.mismatch = "class count " + std::to_string(out.classes) + " vs " +
                   std::to_string(algo.last_num_classes());
    return out;
  }

  flow_.import_warm_state(before.solver_warm);
  lagrangian_.import_warm_state(before.lag_warm);
  core::FractionalSolution frac;
  int replay_depth = 0;
  auto flow_solve = [&] {
    timed(spans, "core.fractional_solver.solve", slot, parent_span,
          out.flow_ms, [&] {
            core::SolveReport report;
            frac = aggregate_ ? flow_.solve_classes(classing_, theta, &report)
                              : flow_.solve_degraded(demands, theta, &report);
            if (report.degraded) replay_depth = 2;
          });
  };
  if (tier == core::SolverTier::kFlow) {
    flow_solve();
  } else if (tier == core::SolverTier::kLagrangian) {
    core::LagrangianOutcome lag;
    timed(spans, "core.lagrangian_solver.solve", slot, parent_span,
          out.lagrangian_ms, [&] {
            lag = aggregate_ ? lagrangian_.solve_classes(classing_, theta)
                             : lagrangian_.solve(demands, theta);
          });
    out.lagrangian_ran = true;
    out.lagrangian_iterations = lag.iterations;
    out.lagrangian_gap = lag.gap;
    if (lag.converged) {
      frac = std::move(lag.solution);
    } else {
      flow_solve();
      replay_depth = std::max(replay_depth, 1);
    }
  } else {
    out.mismatch = std::string("tier ") + core::solver_tier_name(tier) +
                   " has no shadow replay";
    return out;
  }
  if (replay_depth != depth) {
    out.mismatch = "fallback depth " + std::to_string(replay_depth) + " vs " +
                   std::to_string(depth);
    return out;
  }

  mecsc::common::Rng rng(0);
  MECSC_CHECK_MSG(rng.restore_state(before.rng_stream), "bad RNG snapshot");
  core::RoundingOptions ropt;
  ropt.gamma = options_.gamma;
  ropt.epsilon = options_.epsilon.at(t);
  ropt.per_slot_coin = options_.per_slot_coin;
  core::Assignment replayed;
  timed(spans, "core.rounding.round", slot, parent_span, out.rounding_ms, [&] {
    replayed = aggregate_
                   ? core::round_assignment_aggregated(
                         *problem_, frac, classing_, demands, theta, ropt, rng)
                   : core::round_assignment(*problem_, frac, demands, theta,
                                            ropt, rng);
  });
  out.matched = replayed.station_of_request == decision.station_of_request &&
                replayed.cached == decision.cached;
  if (!out.matched) out.mismatch = "assignment differs from decide()";
  return out;
}

}  // namespace perfbench
