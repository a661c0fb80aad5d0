#ifndef MECSC_PERFBENCH_SHADOW_H
#define MECSC_PERFBENCH_SHADOW_H

// Shadow replay of one OL_GD decide() through the library's public
// layer calls, so a traced run can time each layer from outside.
//
// Before decide(t) the driver snapshots export_state(); afterwards the
// replay re-runs the slot on benchmark-owned DemandClassing,
// FractionalSolver and LagrangianSolver objects seeded with the
// snapshot's warm states and RNG stream, follows the tier and fallback
// depth decide() reported, rounds, and checks that the result equals
// the real decision bit for bit. A replay that diverges means the
// phase times below do not describe what decide() did.

#include <cstddef>
#include <string>

#include "algorithms/ol_gd.h"
#include "common.h"
#include "core/aggregation.h"
#include "core/fractional_solver.h"
#include "core/lagrangian_solver.h"
#include "obs/metrics.h"

namespace perfbench {

/// Phase times and work of one replayed slot.
struct ShadowSlot {
  double classing_ms = 0.0;
  double flow_ms = 0.0;
  double lagrangian_ms = 0.0;
  double rounding_ms = 0.0;
  std::size_t classes = 0;
  bool lagrangian_ran = false;
  std::size_t lagrangian_iterations = 0;
  double lagrangian_gap = 0.0;
  bool matched = false;
  std::string mismatch;  ///< Why the replay diverged ("" when matched).
};

class ShadowReplay {
 public:
  /// `options` must be the options the replayed algorithm was built
  /// with, with aggregation and tier set explicitly (never kEnv).
  ShadowReplay(const mecsc::core::CachingProblem& problem,
               const mecsc::algorithms::OlOptions& options);

  /// Replays slot `t`. `before` is export_state() taken right before
  /// decide(t); `algo` and `decision` are the algorithm and the
  /// assignment right after it. Solver telemetry of the replay goes to
  /// a private registry, so the process's counters describe decide()
  /// alone.
  ShadowSlot replay(std::size_t t, const mecsc::algorithms::OlGdState& before,
                    const mecsc::algorithms::OnlineCachingAlgorithm& algo,
                    const mecsc::core::Assignment& decision,
                    SpanRecorder* spans, int parent_span);

 private:
  const mecsc::core::CachingProblem* problem_;
  mecsc::algorithms::OlOptions options_;
  bool aggregate_ = false;
  mecsc::core::DemandClassing classing_;
  mecsc::core::FractionalSolver flow_;
  mecsc::core::LagrangianSolver lagrangian_;
  mecsc::obs::Registry registry_;
};

}  // namespace perfbench

#endif  // MECSC_PERFBENCH_SHADOW_H
