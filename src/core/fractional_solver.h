#ifndef MECSC_CORE_FRACTIONAL_SOLVER_H
#define MECSC_CORE_FRACTIONAL_SOLVER_H

#include <cstdint>
#include <vector>

#include "core/aggregation.h"
#include "core/problem.h"
#include "flow/transport_simplex.h"

namespace mecsc::core {

/// Snapshot of a FractionalSolver's cross-solve warm state — the
/// previous solve's flow arcs, which the next solve pivots into its
/// starting basis before pricing. It is the only state carried from one
/// solve to the next, so checkpointing it keeps the flow path's
/// decisions bit-identical across a crash/resume boundary.
struct FractionalWarmState {
  /// Previous solve's per-column flow arcs (station ids).
  std::vector<std::vector<std::uint32_t>> warm_arcs;
};

/// Outcome annotations of a degraded-mode solve (solve_degraded /
/// solve_classes with a non-null report).
struct SolveReport {
  /// True when the flow solver could not route the full demand and the
  /// remainder was placed greedily (station capacities may then be
  /// exceeded; the reported objective still scores the true Eq. 3 cost).
  bool degraded = false;
  /// Resource demand (MHz) the flow solver failed to route.
  double unrouted_mhz = 0.0;
};

/// Scalable solver for the per-slot LP relaxation, used inside OL_GD on
/// every time slot (Algorithm 1 line 3-4 at network sizes where the
/// dense simplex would be too slow).
///
/// Reduction (DESIGN.md §5): dropping the coupling constraint (6) turns
/// the LP into a transportation problem — requests are sources with
/// supply ρ_l·C_unit, stations are sinks with capacity C(bs_i), and the
/// per-flow-unit cost on arc (l, i) is
///
///     (ρ_l·θ_i + access_li + amortized_inst_ik) / (ρ_l·C_unit)
///
/// where amortized_inst spreads d_ins[i][k] over the expected resource
/// demand of service k. A network simplex solves this exactly; y is
/// recovered as y_ki = max_{l: svc(l)=k} x_li and the reported objective
/// is re-evaluated with the true (non-amortized) Eq. 3 cost, so the only
/// approximation is in *where* flow is routed, not in how the solution
/// is scored. The `bench_lp_vs_flow` ablation and tests/test_core.cpp
/// quantify the gap against the exact simplex path (small: instantiation
/// delays are second-order versus ρ·θ).
///
/// Method (DESIGN.md §7): every re-pricing round is solved exactly on
/// the full column × station arc set by flow::TransportSimplex, a
/// primal network simplex. Only arc costs change between rounds, so
/// rounds 1-2 restart from the previous round's optimal basis; round 0
/// starts from the artificial basis with last solve's flow arcs pivoted
/// in first. The simplex stops only when no arc has a negative reduced
/// cost, which is the optimality certificate for the whole network. A
/// slack source absorbs spare capacity; on a capacity shortfall an
/// overflow sink takes the unroutable demand (the routed part is still
/// the min-cost max-flow), which solve_degraded then places greedily.
/// All scratch memory (the simplex, cost matrices) is owned by the
/// solver and reused across solves, so steady-state per-slot solves
/// allocate nothing.
///
/// Scaling (DESIGN.md §11): the flow core is column-generic — a column
/// is either one request or one demand class (solve_classes). With
/// aggregation the identical machinery runs over |classes| columns
/// instead of |R|, which is what keeps 100k-request slots inside the
/// slot budget.
///
/// Thread safety: the reusable scratch state makes concurrent solve()
/// calls on one instance a data race. Give each worker its own solver
/// (they are cheap); `sim::ParallelReplicationRunner` replications each
/// construct their own algorithm instances and therefore their own
/// solvers.
class FractionalSolver {
 public:
  /// Binds the solver to `problem` (non-owning; must outlive the solver).
  explicit FractionalSolver(const CachingProblem& problem) : problem_(&problem) {}

  /// Solves for one slot; throws Infeasible when demand cannot be fully
  /// routed. Zero-demand requests are pinned (x = 1) to their cheapest
  /// station since they consume no capacity.
  FractionalSolution solve(const std::vector<double>& demands,
                           const std::vector<double>& theta) const;

  /// Degraded-mode variant of solve(): never throws on capacity
  /// shortfall. The routable part keeps the min-cost-flow optimum; each
  /// unrouted request fraction is then placed greedily on the cheapest
  /// up station with residual capacity (the roomiest up station when
  /// none has any), so Σ_i x_li = 1 still holds for every request.
  /// Bitwise identical to solve() whenever the instance is feasible.
  /// `report` (optional) records whether and how much degradation
  /// happened.
  FractionalSolution solve_degraded(const std::vector<double>& demands,
                                    const std::vector<double>& theta,
                                    SolveReport* report = nullptr) const;

  /// Aggregated counterpart of solve()/solve_degraded(): solves the
  /// transportation relaxation over the classing's demand classes —
  /// columns x_{class,i} with the class's summed resource demand and the
  /// exact member-summed cost coefficients — and returns a *class-level*
  /// fractional solution (one x row per class, in classing order; the
  /// objective is still the per-request Eq. 3 average). De-aggregate
  /// with round_assignment_aggregated, or expand x_li := x_{class(l),i}.
  /// With a null `report` a capacity shortfall throws Infeasible; with a
  /// non-null one the solve degrades gracefully exactly like
  /// solve_degraded ("solve_degraded accepts classes").
  FractionalSolution solve_classes(const DemandClassing& classing,
                                   const std::vector<double>& theta,
                                   SolveReport* report = nullptr) const;

  /// Evaluates the exact Eq.-3 objective of a fractional solution
  /// (average per-request delay, ms) with y_ki = max_l x_li.
  double objective(const FractionalSolution& sol, const std::vector<double>& demands,
                   const std::vector<double>& theta) const;

  /// Snapshots the cross-solve warm state (see FractionalWarmState).
  FractionalWarmState export_warm_state() const {
    return FractionalWarmState{s_.warm};
  }

  /// Restores a snapshot taken by export_warm_state(). Dimension-checked:
  /// a snapshot whose arc station ids were sized for a different station
  /// count (stale checkpoint after a topology change, or a resume recipe
  /// whose byte-compare passed but whose aggregation resolution produced
  /// a different column universe) is rejected as a whole and the solver
  /// cold-starts instead of pivoting in arcs that do not exist.
  /// Column-count drift alone is fine — the per-slot class count varies
  /// by design and flow_solve resizes the warm set — it is the *station*
  /// dimension that the arc ids index.
  void import_warm_state(const FractionalWarmState& state) const;

 private:
  /// Request-path implementation: fills the per-column scratch from the
  /// per-request demands, then runs the shared flow core. Throws on
  /// shortfall when `report` is null, degrades gracefully when it is not.
  FractionalSolution solve_impl(const std::vector<double>& demands,
                                const std::vector<double>& theta,
                                SolveReport* report) const;

  /// Column-generic flow core shared by the request and class paths.
  /// Expects s_.res / s_.svc / s_.home / s_.base_cost / s_.service_demand
  /// prefilled for `n` columns; `objective_divisor` is the request count
  /// the Eq. 3 average divides by (= n on the request path).
  FractionalSolution flow_solve(std::size_t n, double total_flow,
                                double objective_divisor,
                                SolveReport* report) const;

  /// Reusable buffers; sized on first solve, reused afterwards. A
  /// "column" below is a request (solve/solve_degraded) or a demand
  /// class (solve_classes).
  struct Scratch {
    flow::TransportSimplex simplex;
    std::vector<double> res;             // per column, resource demand (MHz)
    std::vector<std::uint32_t> svc;      // per column, service id
    std::vector<std::uint32_t> home;     // per column, home station
    std::vector<double> service_demand;  // per service, expected demand
    std::vector<double> base_cost;       // n×ns, cost minus amortized part
    std::vector<double> inst_base;       // nk×ns amortization base
    std::vector<double> attracted;       // nk×ns realised per-instance demand
    std::vector<double> x;               // n×ns current round
    std::vector<double> y;               // nk×ns current round
    std::vector<double> x_best;          // n×ns best round so far
    std::vector<double> y_best;          // nk×ns
    std::vector<std::uint32_t> cols;     // simplex source -> column (res > 0)
    std::vector<std::uint32_t> ups;      // simplex sink -> up station
    std::vector<std::uint32_t> sink_of;  // station -> simplex sink (ns if down)
    std::vector<double> station_load;    // per station, routed load (MHz)
    std::vector<std::pair<std::uint32_t, std::uint32_t>> prime;  // warm arcs
    std::vector<std::vector<std::uint32_t>> warm;  // previous solve's flow arcs
  };

  const CachingProblem* problem_;
  mutable Scratch s_;
};

}  // namespace mecsc::core

#endif  // MECSC_CORE_FRACTIONAL_SOLVER_H
