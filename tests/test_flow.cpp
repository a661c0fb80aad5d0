// Tests for the network-simplex transportation solver, including
// differential checks against the exact dense simplex on random
// (and deliberately degenerate) instances.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "flow/transport_simplex.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace mecsc::flow {
namespace {

/// Dense m×n flow matrix of the current basis.
std::vector<double> flows(const TransportSimplex& ts) {
  std::vector<double> x(ts.num_sources() * ts.num_sinks(), 0.0);
  ts.for_each_basic([&](std::size_t u, std::size_t j, double f) {
    x[u * ts.num_sinks() + j] = f;
  });
  return x;
}

TEST(TransportSimplex, SingleArc) {
  TransportSimplex ts;
  ts.reset(1, 1);
  ts.set_supply(0, 3.0);
  ts.set_demand(0, 3.0);
  ts.set_cost(0, 0, 2.0);
  TransportResult r = ts.solve();
  EXPECT_DOUBLE_EQ(r.cost, 6.0);
  EXPECT_DOUBLE_EQ(flows(ts)[0], 3.0);
}

TEST(TransportSimplex, SaturatesCheapSinkThenSpills) {
  // One source, a cheap sink that can take 4 and a costly one taking the
  // other 6: the cheap arc saturates at its sink's demand.
  TransportSimplex ts;
  ts.reset(1, 2);
  ts.set_supply(0, 10.0);
  ts.set_demand(0, 4.0);
  ts.set_demand(1, 6.0);
  ts.set_cost(0, 0, 1.0);
  ts.set_cost(0, 1, 3.0);
  TransportResult r = ts.solve();
  EXPECT_DOUBLE_EQ(r.cost, 4.0 * 1.0 + 6.0 * 3.0);
  const auto x = flows(ts);
  EXPECT_DOUBLE_EQ(x[0], 4.0);
  EXPECT_DOUBLE_EQ(x[1], 6.0);
}

TEST(TransportSimplex, ClassicTransportation) {
  // Same instance as the dense simplex test: optimum cost 35.
  TransportSimplex ts;
  ts.reset(2, 2);
  ts.set_supply(0, 10.0);
  ts.set_supply(1, 20.0);
  ts.set_demand(0, 15.0);
  ts.set_demand(1, 15.0);
  ts.set_cost(0, 0, 1.0);
  ts.set_cost(0, 1, 4.0);
  ts.set_cost(1, 0, 2.0);
  ts.set_cost(1, 1, 1.0);
  TransportResult r = ts.solve();
  EXPECT_NEAR(r.cost, 35.0, 1e-9);
  const auto x = flows(ts);
  EXPECT_NEAR(x[0], 10.0, 1e-12);
  EXPECT_NEAR(x[2], 5.0, 1e-12);
  EXPECT_NEAR(x[3], 15.0, 1e-12);
}

TEST(TransportSimplex, ZeroSupplyShipsNothing) {
  TransportSimplex ts;
  ts.reset(3, 2);
  ts.set_cost(0, 0, 1.0);
  ts.set_cost(2, 1, 5.0);
  TransportResult r = ts.solve();
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  for (double f : flows(ts)) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(TransportSimplex, RejectsNonFiniteInput) {
  TransportSimplex ts;
  ts.reset(2, 2);
  ts.set_supply(0, 1.0);
  ts.set_demand(1, 1.0);
  ts.set_cost(1, 0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(ts.solve(), std::exception);
  ts.set_cost(1, 0, std::numeric_limits<double>::infinity());
  EXPECT_THROW(ts.solve(), std::exception);
  ts.set_cost(1, 0, -std::numeric_limits<double>::infinity());
  EXPECT_THROW(ts.solve(), std::exception);

  TransportSimplex bad;
  bad.reset(1, 1);
  EXPECT_THROW(bad.set_supply(0, -1.0), std::exception);
  EXPECT_THROW(bad.set_supply(0, std::numeric_limits<double>::infinity()),
               std::exception);
  EXPECT_THROW(bad.set_demand(0, std::numeric_limits<double>::quiet_NaN()),
               std::exception);
  EXPECT_THROW(bad.set_supply(1, 1.0), std::exception);
  bad.set_supply(0, 1.0);
  bad.set_demand(0, 1.0);
  EXPECT_THROW(bad.solve({{0u, 1u}}), std::exception);  // prime arc out of range
}

TEST(TransportSimplex, CostMatchesFlowTimesCost) {
  common::Rng rng(103);
  const std::size_t m = 7, n = 5;
  TransportSimplex ts;
  ts.reset(m, n);
  double total = 0.0;
  for (std::size_t u = 0; u < m; ++u) {
    const double s = rng.uniform(1.0, 5.0);
    ts.set_supply(u, s);
    total += s;
  }
  for (std::size_t j = 0; j < n; ++j) ts.set_demand(j, total / n);
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t j = 0; j < n; ++j) ts.set_cost(u, j, rng.uniform(0.0, 3.0));
  }
  TransportResult r = ts.solve();
  const auto x = flows(ts);
  double recomputed = 0.0;
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t j = 0; j < n; ++j) recomputed += x[u * n + j] * ts.cost(u, j);
  }
  EXPECT_NEAR(r.cost, recomputed, 1e-9 * recomputed);
}

/// Only costs change between re-pricing rounds, so FractionalSolver
/// re-solves from the previous optimal basis. That restart, and priming
/// with a previous support, must reach the same optimum as a cold solve.
TEST(TransportSimplex, WarmRestartsMatchColdSolve) {
  common::Rng rng(7);
  const std::size_t m = 12, n = 6;
  std::vector<double> supply(m), c1(m * n), c2(m * n);
  double total = 0.0;
  for (auto& s : supply) total += (s = rng.uniform(0.5, 4.0));
  for (auto& c : c1) c = rng.uniform(0.0, 10.0);
  for (auto& c : c2) c = rng.uniform(0.0, 10.0);
  auto setup = [&](TransportSimplex& ts, const std::vector<double>& c) {
    ts.reset(m, n);
    for (std::size_t u = 0; u < m; ++u) ts.set_supply(u, supply[u]);
    for (std::size_t j = 0; j < n; ++j) ts.set_demand(j, total / n);
    for (std::size_t a = 0; a < m * n; ++a) ts.set_cost(a / n, a % n, c[a]);
  };
  TransportSimplex warm;
  setup(warm, c1);
  const TransportResult first = warm.solve();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> support;
  warm.for_each_basic([&](std::size_t u, std::size_t j, double f) {
    if (f > 0.0) support.emplace_back(u, j);
  });
  for (std::size_t a = 0; a < m * n; ++a) warm.set_cost(a / n, a % n, c2[a]);
  const TransportResult rewarm = warm.solve();

  TransportSimplex cold;
  setup(cold, c2);
  const TransportResult fresh = cold.solve();
  EXPECT_NEAR(rewarm.cost, fresh.cost, 1e-9 * fresh.cost);

  TransportSimplex primed;
  setup(primed, c1);
  const TransportResult again = primed.solve(support);
  EXPECT_NEAR(again.cost, first.cost, 1e-9 * first.cost);
  EXPECT_LE(again.pivots, first.pivots + support.size());
}

/// Property: on random transportation instances the network simplex
/// optimum equals the dense simplex optimum. Sources may ship less than
/// their supply, so the balanced instance gets a zero-cost dummy sink.
class FlowVsSimplexTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowVsSimplexTest, MatchesSimplexOnTransportation) {
  common::Rng rng(GetParam());
  const std::size_t ns = 3 + rng.index(3);  // sources
  const std::size_t nd = 3 + rng.index(3);  // sinks
  std::vector<double> supply(ns), demand(nd);
  double total_demand = 0.0;
  for (auto& d : demand) {
    d = rng.uniform(1.0, 10.0);
    total_demand += d;
  }
  // Total supply >= total demand so the instance is feasible.
  double remaining = total_demand * 1.4;
  for (std::size_t i = 0; i < ns; ++i) {
    supply[i] = remaining / static_cast<double>(ns);
  }
  std::vector<std::vector<double>> cost(ns, std::vector<double>(nd));
  for (auto& row : cost) {
    for (auto& c : row) c = rng.uniform(0.0, 9.0);
  }

  // Simplex formulation.
  lp::Model m;
  std::vector<std::vector<std::size_t>> var(ns, std::vector<std::size_t>(nd));
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < nd; ++j) var[i][j] = m.add_variable(cost[i][j]);
  }
  for (std::size_t i = 0; i < ns; ++i) {
    lp::Constraint c;
    c.relation = lp::Relation::kLessEqual;
    c.rhs = supply[i];
    for (std::size_t j = 0; j < nd; ++j) c.terms.emplace_back(var[i][j], 1.0);
    m.add_constraint(std::move(c));
  }
  for (std::size_t j = 0; j < nd; ++j) {
    lp::Constraint c;
    c.relation = lp::Relation::kEqual;
    c.rhs = demand[j];
    for (std::size_t i = 0; i < ns; ++i) c.terms.emplace_back(var[i][j], 1.0);
    m.add_constraint(std::move(c));
  }
  lp::Solution ls = lp::SimplexSolver().solve(m);
  ASSERT_EQ(ls.status, lp::SolveStatus::kOptimal);

  TransportSimplex ts;
  ts.reset(ns, nd + 1);
  double total_supply = 0.0;
  for (std::size_t i = 0; i < ns; ++i) {
    ts.set_supply(i, supply[i]);
    total_supply += supply[i];
  }
  for (std::size_t j = 0; j < nd; ++j) ts.set_demand(j, demand[j]);
  ts.set_demand(nd, total_supply - total_demand);  // dummy: unshipped supply
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < nd; ++j) ts.set_cost(i, j, cost[i][j]);
  }
  TransportResult r = ts.solve();
  EXPECT_NEAR(r.cost, ls.objective, 1e-9 * std::max(1.0, ls.objective));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowVsSimplexTest,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- Differential test in FractionalSolver's shape ---------------------
//
// Columns with supply (some zero), stations with capacity (some down,
// i.e. capacity 0), balanced exactly as core::FractionalSolver balances
// it: a slack source holding spare capacity and an overflow sink (its
// arcs left at cost 0) taking what capacity cannot route. The station
// demands are equalities, so the routed part is the min-cost max-flow
// whatever the overflow arcs cost. The reference is the capacitated
// min-cost max-flow LP solved by lp::SimplexSolver.

enum class Shape { kRandom, kAllTies, kExactFit, kZeroSupply, kSingleUp,
                   kDownStations, kShortfall };

struct Case {
  std::vector<double> supply;    // per column
  std::vector<double> capacity;  // per station (0 = down)
  std::vector<double> cost;      // columns × stations
};

Case make_case(Shape shape, std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t m = 3 + rng.index(6);
  // kDownStations adds one roomy station so the down ones do not make
  // the instance infeasible.
  std::size_t n = shape == Shape::kSingleUp ? 3 : 2 + rng.index(5);
  if (shape == Shape::kDownStations) ++n;
  Case c;
  c.supply.resize(m);
  c.capacity.resize(n);
  c.cost.resize(m * n);
  double total = 0.0;
  for (std::size_t u = 0; u < m; ++u) {
    // Integral supplies keep the exact-fit sums exact.
    double s = shape == Shape::kAllTies || shape == Shape::kExactFit
                   ? static_cast<double>(1 + rng.index(5))
                   : rng.uniform(0.5, 6.0);
    if (shape == Shape::kZeroSupply && u % 2 == 0) s = 0.0;
    c.supply[u] = s;
    total += s;
  }
  for (auto& cst : c.cost) {
    cst = shape == Shape::kAllTies ? 1.0 : rng.uniform(0.0, 9.0);
  }
  const double load = shape == Shape::kShortfall ? rng.uniform(0.4, 0.9)
                                                 : rng.uniform(1.05, 2.0);
  for (auto& cap : c.capacity) cap = load * total / static_cast<double>(n);
  switch (shape) {
    case Shape::kAllTies:
    case Shape::kExactFit:
      // Capacities that sum exactly (in floating point) to the supply.
      std::fill(c.capacity.begin(), c.capacity.end(), 0.0);
      for (std::size_t u = 0; u < m; ++u) c.capacity[u % n] += c.supply[u];
      break;
    case Shape::kSingleUp:
      c.capacity = {0.0, 1.3 * total, 0.0};
      break;
    case Shape::kDownStations:
      c.capacity[0] = 0.0;
      c.capacity[n - 2] = 0.0;
      c.capacity[n - 1] = 1.5 * total;
      break;
    default:
      break;
  }
  return c;
}

/// lp::SimplexSolver optimum of the capacitated min-cost max-flow: every
/// column ships its supply when capacity allows (≤ at stations), else
/// every station fills (≤ at columns).
double lp_reference(const Case& c) {
  const std::size_t m = c.supply.size(), n = c.capacity.size();
  double total = 0.0, cap = 0.0;
  for (double s : c.supply) total += s;
  for (double k : c.capacity) cap += k;
  const bool shortfall = total > cap;
  lp::Model model;
  std::vector<std::size_t> var(m * n);
  for (std::size_t a = 0; a < m * n; ++a) var[a] = model.add_variable(c.cost[a]);
  for (std::size_t u = 0; u < m; ++u) {
    lp::Constraint row;
    row.relation = shortfall ? lp::Relation::kLessEqual : lp::Relation::kEqual;
    row.rhs = c.supply[u];
    for (std::size_t i = 0; i < n; ++i) row.terms.emplace_back(var[u * n + i], 1.0);
    model.add_constraint(std::move(row));
  }
  for (std::size_t i = 0; i < n; ++i) {
    lp::Constraint col;
    col.relation = shortfall ? lp::Relation::kEqual : lp::Relation::kLessEqual;
    col.rhs = c.capacity[i];
    for (std::size_t u = 0; u < m; ++u) col.terms.emplace_back(var[u * n + i], 1.0);
    model.add_constraint(std::move(col));
  }
  lp::Solution ls = lp::SimplexSolver().solve(model);
  EXPECT_EQ(ls.status, lp::SolveStatus::kOptimal);
  return ls.objective;
}

class TransportDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Shape, std::uint64_t>> {};

TEST_P(TransportDifferentialTest, MatchesDenseSimplex) {
  const auto [shape, seed] = GetParam();
  const Case c = make_case(shape, seed);
  const std::size_t m = c.supply.size(), n = c.capacity.size();

  // Balanced instance: up stations are the sinks.
  std::vector<std::size_t> ups;
  double total = 0.0, cap = 0.0;
  for (double s : c.supply) total += s;
  for (std::size_t i = 0; i < n; ++i) {
    if (c.capacity[i] > 0.0) {
      ups.push_back(i);
      cap += c.capacity[i];
    }
  }
  const std::size_t nu = ups.size();
  TransportSimplex ts;
  ts.reset(m + 1, nu + 1);
  for (std::size_t u = 0; u < m; ++u) ts.set_supply(u, c.supply[u]);
  ts.set_supply(m, std::max(0.0, cap - total));
  for (std::size_t b = 0; b < nu; ++b) ts.set_demand(b, c.capacity[ups[b]]);
  ts.set_demand(nu, std::max(0.0, total - cap));
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t b = 0; b < nu; ++b) {
      ts.set_cost(u, b, c.cost[u * n + ups[b]]);
    }
  }
  const TransportResult r = ts.solve();

  const auto x = flows(ts);
  const std::size_t w = nu + 1;
  double real_cost = 0.0;
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t b = 0; b < nu; ++b) real_cost += x[u * w + b] * ts.cost(u, b);
  }

  // Objective: the real-arc cost equals the LP optimum.
  const double ref = lp_reference(c);
  EXPECT_NEAR(real_cost, ref, 1e-9 * std::max(1.0, std::fabs(ref)));

  // Primal feasibility: non-negative flows, every supply shipped and
  // every demand met.
  const double feas_tol = 1e-12 * std::max(1.0, total + cap);
  for (double f : x) EXPECT_GE(f, 0.0);
  for (std::size_t u = 0; u <= m; ++u) {
    double out = 0.0;
    for (std::size_t b = 0; b <= nu; ++b) out += x[u * w + b];
    const double supply = u < m ? c.supply[u] : std::max(0.0, cap - total);
    EXPECT_NEAR(out, supply, feas_tol) << "source " << u;
  }
  for (std::size_t b = 0; b <= nu; ++b) {
    double in = 0.0;
    for (std::size_t u = 0; u <= m; ++u) in += x[u * w + b];
    const double demand = b < nu ? c.capacity[ups[b]] : std::max(0.0, total - cap);
    EXPECT_NEAR(in, demand, feas_tol) << "sink " << b;
  }

  // Dual feasibility: no arc prices below −tolerance, i.e. the
  // termination test certifies optimality over the full arc set.
  for (std::size_t u = 0; u <= m; ++u) {
    for (std::size_t b = 0; b <= nu; ++b) {
      EXPECT_GE(ts.reduced_cost(u, b), -ts.tolerance()) << u << "," << b;
    }
  }

  // No cycling: a strongly feasible basis needs at most a few pivots per
  // node here (≤ 3·(sources + sinks) on every instance of this suite).
  EXPECT_LE(r.pivots, 3 * (m + 1 + nu + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransportDifferentialTest,
    ::testing::Combine(::testing::Values(Shape::kRandom, Shape::kAllTies,
                                         Shape::kExactFit, Shape::kZeroSupply,
                                         Shape::kSingleUp, Shape::kDownStations,
                                         Shape::kShortfall),
                       ::testing::Range<std::uint64_t>(1, 13)));

}  // namespace
}  // namespace mecsc::flow
