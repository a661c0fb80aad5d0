#ifndef MECSC_FLOW_TRANSPORT_SIMPLEX_H
#define MECSC_FLOW_TRANSPORT_SIMPLEX_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mecsc::flow {

/// Work and cost of one TransportSimplex::solve() call.
struct TransportResult {
  double cost = 0.0;        // Σ c_uj · x_uj over the real arcs
  std::size_t pivots = 0;   // basis changes (priming pivots included)
  std::size_t priced = 0;   // reduced costs evaluated
};

/// Primal network simplex for the balanced, dense transportation problem
///
///     min Σ_uj c_uj x_uj   s.t.  Σ_j x_uj = supply_u,  Σ_u x_uj = demand_j,
///                                x ≥ 0,
///
/// with every source→sink arc present and uncapacitated. This is the
/// shape of the paper's per-slot LP relaxation once the coupling
/// constraint (6) is dropped (core::FractionalSolver adds a slack source
/// and an overflow sink to balance it).
///
/// Method: an artificial root joined to every node by a big-M
/// artificial arc gives a strongly feasible starting basis; entering
/// arcs come from block search pricing (√E arcs per block, the most
/// negative reduced cost in the first block that has one); the leaving
/// arc follows the strongly-feasible tie rule (strict `<` on the tail
/// side of the cycle, `<=` on the head side — Király & Kovács 2012, as
/// in LEMON's NetworkSimplex), which rules out cycling on degenerate
/// pivots. The tree is kept as parent pointers only; after each pivot
/// depth and potentials are recomputed by one O(V) walk, so the
/// potentials never accumulate rounding drift.
///
/// The basis survives between solve() calls until reset(): when only
/// costs change (set_cost), the next solve starts from the previous
/// optimum, which stays primal feasible. solve() terminates only when
/// no arc has reduced cost below −tolerance(), so termination is itself
/// the full-arc optimality certificate. Supplies and demands that do
/// not balance exactly (floating-point sums) are absorbed by the root.
///
/// Counters: `mcf.solves`, `mcf.augmentations` (pivots) and
/// `mcf.arcs_scanned` (reduced costs priced) — the names predate this
/// solver and are kept so per-slot dashboards stay comparable.
class TransportSimplex {
 public:
  /// Re-dimensions the instance (costs, supplies and demands zeroed)
  /// and restores the artificial starting basis. Buffers keep their
  /// capacity: reset + solve on a same-sized instance allocates nothing.
  void reset(std::size_t num_sources, std::size_t num_sinks);

  std::size_t num_sources() const noexcept { return m_; }
  std::size_t num_sinks() const noexcept { return n_; }

  /// Supplies/demands must be finite and >= 0; set them after reset()
  /// and before the first solve() (the starting basis is built from
  /// them there).
  void set_supply(std::size_t u, double supply);
  void set_demand(std::size_t j, double demand);

  /// Row-major cost matrix, num_sources × num_sinks. Costs may change
  /// between solves; solve() rejects non-finite entries.
  void set_cost(std::size_t u, std::size_t j, double cost) {
    cost_[u * n_ + j] = cost;
  }
  double* cost_row(std::size_t u) { return &cost_[u * n_]; }
  double cost(std::size_t u, std::size_t j) const { return cost_[u * n_ + j]; }

  /// Optimises from the current basis. `prime` lists arcs (u, j) to
  /// offer as entering arcs before pricing starts — each one pivots in
  /// if its reduced cost is negative at that point (a warm start from a
  /// previous solution's support). Throws common::Error on non-finite
  /// input.
  TransportResult solve(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& prime = {});

  /// Optimality tolerance of the last solve: it stops once no reduced
  /// cost is below −tolerance(). Scales with the largest |cost| and the
  /// node count (the artificial cost is their product).
  double tolerance() const noexcept { return tol_; }

  /// Reduced cost c_uj + π_u − π_j under the current basis.
  double reduced_cost(std::size_t u, std::size_t j) const {
    return cost_[u * n_ + j] + pi_[u] - pi_[m_ + j];
  }

  /// Calls f(u, j, flow) for every basic real arc (at most
  /// num_sources + num_sinks of them; every other arc carries 0).
  template <class F>
  void for_each_basic(F&& f) const {
    const std::size_t real = m_ * n_;
    for (std::size_t w = 0; w < root_; ++w) {
      const std::size_t a = pred_[w];
      if (a < real) f(a / n_, a % n_, flow_[w]);
    }
  }

 private:
  double arc_cost(std::size_t node) const;
  void recompute_tree();
  bool find_entering(std::size_t& arc, std::size_t& priced);
  void pivot(std::size_t arc);

  std::size_t m_ = 0, n_ = 0;  // sources, sinks
  std::size_t root_ = 0;       // node id m_ + n_
  std::vector<double> cost_;   // m_ × n_
  std::vector<double> supply_;  // per node; sinks carry their demand

  // Spanning tree: per non-root node, parent node, the arc joining it to
  // the parent (real arc id u·n_ + j, or kArtificial), whether that arc
  // points up (node → parent), and the flow on it.
  std::vector<std::uint32_t> parent_;
  std::vector<std::size_t> pred_;
  std::vector<char> up_;
  std::vector<double> flow_;
  std::vector<std::uint32_t> depth_;
  std::vector<double> pi_;  // node potentials; π_root = 0
  bool fresh_ = true;       // basis not built yet (reset, no solve)

  double art_cost_ = 0.0;  // big-M cost of the artificial root→sink arcs
  double tol_ = 0.0;
  std::size_t block_ = 0;
  std::size_t next_arc_ = 0;  // block-search resume position

  // recompute_tree scratch.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stack_;
};

}  // namespace mecsc::flow

#endif  // MECSC_FLOW_TRANSPORT_SIMPLEX_H
