#include "core/fractional_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace mecsc::core {

namespace {

/// Re-pricing rounds of the facility-location amortization (see solve).
constexpr std::size_t kRounds = 3;

}  // namespace

void FractionalSolver::import_warm_state(const FractionalWarmState& state) const {
  const std::size_t ns = problem_->num_stations();
  for (const auto& arcs : state.warm_arcs) {
    for (std::uint32_t i : arcs) {
      if (i >= ns) {
        // Stale snapshot (wrong station universe): cold start. Silently
        // accepting it would pivot in arcs to stations that do not exist.
        MECSC_COUNT("frac.warm_state_rejected", 1.0);
        s_.warm.clear();
        return;
      }
    }
  }
  s_.warm = state.warm_arcs;
}

FractionalSolution FractionalSolver::solve(const std::vector<double>& demands,
                                           const std::vector<double>& theta) const {
  return solve_impl(demands, theta, nullptr);
}

FractionalSolution FractionalSolver::solve_degraded(
    const std::vector<double>& demands, const std::vector<double>& theta,
    SolveReport* report) const {
  SolveReport local;
  return solve_impl(demands, theta, report != nullptr ? report : &local);
}

FractionalSolution FractionalSolver::solve_impl(const std::vector<double>& demands,
                                                const std::vector<double>& theta,
                                                SolveReport* report) const {
  MECSC_SPAN("frac.solve");
  MECSC_COUNT("frac.solves", 1.0);
  const CachingProblem& p = *problem_;
  const std::size_t nr = p.num_requests();
  const std::size_t ns = p.num_stations();
  const std::size_t nk = p.num_services();
  MECSC_CHECK_MSG(demands.size() == nr, "demand vector size mismatch");
  MECSC_CHECK_MSG(theta.size() == ns, "theta vector size mismatch");

  Scratch& s = s_;

  // Expected resource demand per request and per service (initial
  // amortization base).
  s.res.resize(nr);
  s.svc.resize(nr);
  s.home.resize(nr);
  s.service_demand.assign(nk, 0.0);
  double total_flow = 0.0;
  for (std::size_t l = 0; l < nr; ++l) {
    const auto& req = p.requests()[l];
    double res = p.resource_demand_mhz(demands[l]);
    s.res[l] = res;
    s.svc[l] = static_cast<std::uint32_t>(req.service_id);
    s.home[l] = static_cast<std::uint32_t>(req.home_station);
    s.service_demand[req.service_id] += res;
    total_flow += res;
  }

  // Round-invariant part of the (l, i) serving cost; the per-round
  // amortized instantiation price is added on top.
  s.base_cost.resize(nr * ns);
  for (std::size_t l = 0; l < nr; ++l) {
    const double dl = demands[l];
    const double txl = p.tx_unit_ms(l);
    double* row = &s.base_cost[l * ns];
    for (std::size_t i = 0; i < ns; ++i) {
      row[i] = dl * (theta[i] + txl) + p.access_latency_ms(l, i);
    }
  }

  return flow_solve(nr, total_flow, static_cast<double>(nr), report);
}

FractionalSolution FractionalSolver::solve_classes(const DemandClassing& classing,
                                                   const std::vector<double>& theta,
                                                   SolveReport* report) const {
  MECSC_SPAN("frac.solve_classes");
  MECSC_COUNT("frac.class_solves", 1.0);
  const CachingProblem& p = *problem_;
  const std::size_t nc = classing.num_classes();
  const std::size_t ns = p.num_stations();
  const std::size_t nk = p.num_services();
  MECSC_CHECK_MSG(classing.num_requests() == p.num_requests(),
                  "classing was built for a different problem");
  MECSC_CHECK_MSG(theta.size() == ns, "theta vector size mismatch");

  Scratch& s = s_;

  // One column per demand class; its resource demand is the members'
  // summed demand, so station capacity sees exactly the per-request load.
  s.res.resize(nc);
  s.svc.resize(nc);
  s.home.resize(nc);
  s.service_demand.assign(nk, 0.0);
  double total_flow = 0.0;
  const auto& classes = classing.classes();
  for (std::size_t c = 0; c < nc; ++c) {
    const DemandClass& cls = classes[c];
    double res = p.resource_demand_mhz(cls.rho_sum);
    s.res[c] = res;
    s.svc[c] = cls.service;
    s.home[c] = cls.home_station;
    s.service_demand[cls.service] += res;
    total_flow += res;
  }

  // Exact member-summed cost coefficients: Σ_l [ρ_l·(θ_i + tx_l) +
  // access_li] over the class = rho_sum·θ_i + tx_rho_sum + count·access
  // (members share the home station, hence the access latency, to every
  // candidate station). Aggregation therefore loses nothing in the cost
  // model — only the within-class freedom to split members differently.
  s.base_cost.resize(nc * ns);
  const bool inc_access = p.options().include_access_latency;
  for (std::size_t c = 0; c < nc; ++c) {
    const DemandClass& cls = classes[c];
    const double cnt = static_cast<double>(cls.count);
    double* row = &s.base_cost[c * ns];
    for (std::size_t i = 0; i < ns; ++i) {
      const double access =
          inc_access ? p.topology().path_latency_ms(cls.home_station, i) : 0.0;
      row[i] = cls.rho_sum * theta[i] + cls.tx_rho_sum + cnt * access;
    }
  }

  return flow_solve(nc, total_flow,
                    static_cast<double>(classing.num_requests()), report);
}

FractionalSolution FractionalSolver::flow_solve(std::size_t n, double total_flow,
                                                double objective_divisor,
                                                SolveReport* report) const {
  const CachingProblem& p = *problem_;
  const std::size_t ns = p.num_stations();
  const std::size_t nk = p.num_services();
  Scratch& s = s_;

  // Network-access latency of column e at station i (identical to
  // access_latency_ms on the request path; the class path shares one
  // home station across members).
  const bool inc_access = p.options().include_access_latency;
  auto col_access = [&](std::size_t e, std::size_t i) {
    return inc_access ? p.topology().path_latency_ms(s.home[e], i) : 0.0;
  };

  // inst_base[k][i]: demand base used to amortize d_ins[i][k].
  s.inst_base.resize(nk * ns);
  for (std::size_t k = 0; k < nk; ++k) {
    std::fill_n(&s.inst_base[k * ns], ns, s.service_demand[k]);
  }

  // Per-unit cost of the (e, i) arc under the current amortization base.
  auto arc_cost = [&](std::size_t e, std::size_t i) {
    std::size_t k = s.svc[e];
    double res = s.res[e];
    double base = std::max(s.inst_base[k * ns + i], res);
    double amortized = p.instantiation_delay_ms(i, k) * res / base;
    return (s.base_cost[e * ns + i] + amortized) / res;
  };

  // --- Transportation instance ---------------------------------------
  // Sources: the columns with demand, then a slack source holding the
  // spare capacity. Sinks: the up stations (demand = capacity), then an
  // overflow sink taking whatever capacity cannot route. Station demands
  // are equalities, so the routed amount is min(demand, capacity) and
  // the optimum is the min-cost max-flow of the capacitated network. The
  // overflow sink's demand is fixed, so its arcs add the same constant to
  // every feasible solution; they keep the zero cost reset() gives them.
  s.cols.clear();
  for (std::size_t e = 0; e < n; ++e) {
    if (s.res[e] > 0.0) s.cols.push_back(static_cast<std::uint32_t>(e));
  }
  s.ups.clear();
  s.sink_of.assign(ns, static_cast<std::uint32_t>(ns));
  double capacity = 0.0;
  for (std::size_t i = 0; i < ns; ++i) {
    const double cap = p.station_capacity_mhz(i);
    if (cap <= 0.0) continue;  // down station: not a sink
    s.sink_of[i] = static_cast<std::uint32_t>(s.ups.size());
    s.ups.push_back(static_cast<std::uint32_t>(i));
    capacity += cap;
  }
  const std::size_t m = s.cols.size();
  const std::size_t nu = s.ups.size();

  // Degraded mode: set when capacity cannot take the demand (only
  // accepted when `report` is non-null).
  const bool shortfall =
      total_flow - capacity > 1e-6 * std::max(1.0, total_flow);
  if (shortfall) {
    if (report == nullptr) {
      throw common::Infeasible(
          "flow solver could not route all demand: capacity short");
    }
    // Keep what can be routed; the leftovers are placed greedily during
    // extraction below.
    report->degraded = true;
    report->unrouted_mhz = total_flow - capacity;
    MECSC_COUNT("fault.degraded_solves", 1.0);
  }

  flow::TransportSimplex& simplex = s.simplex;
  simplex.reset(m + 1, nu + 1);
  for (std::size_t a = 0; a < m; ++a) simplex.set_supply(a, s.res[s.cols[a]]);
  simplex.set_supply(m, std::max(0.0, capacity - total_flow));
  for (std::size_t b = 0; b < nu; ++b) {
    simplex.set_demand(b, p.station_capacity_mhz(s.ups[b]));
  }
  simplex.set_demand(nu, std::max(0.0, total_flow - capacity));

  // Round 0 offers last solve's flow arcs as entering arcs first
  // (demands and θ drift slowly between slots, so the same arcs tend to
  // be basic again).
  s.warm.resize(n);
  s.prime.clear();
  for (std::size_t a = 0; a < m; ++a) {
    for (std::uint32_t i : s.warm[s.cols[a]]) {
      if (s.sink_of[i] < nu) {
        s.prime.emplace_back(static_cast<std::uint32_t>(a), s.sink_of[i]);
      }
    }
  }

  double best_objective = std::numeric_limits<double>::infinity();
  bool have_best = false;

  // Successive approximation of the facility-location term: solve the
  // transportation LP with instantiation delay amortized per unit of
  // flow, then re-price each (service, station) instance by the demand
  // it actually attracted (a thin instance gets an honest, high per-unit
  // opening price next round), and keep the best solution under the true
  // Eq. 3 objective. Three rounds close most of the gap to the exact LP
  // (see tests/test_core.cpp and bench_lp_vs_flow). Every round is an
  // exact optimum for its cost vector; only costs change between rounds,
  // so each round restarts from the previous round's basis.
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Real arcs at the current amortization; the overflow column and
    // the slack row stay at cost 0.
    for (std::size_t a = 0; a < m; ++a) {
      const std::size_t e = s.cols[a];
      double* row = simplex.cost_row(a);
      for (std::size_t b = 0; b < nu; ++b) row[b] = arc_cost(e, s.ups[b]);
    }
    simplex.solve(s.prime);
    s.prime.clear();

    // Extract x / y and re-price from realised per-instance demand.
    s.x.assign(n * ns, 0.0);
    s.y.assign(nk * ns, 0.0);
    s.attracted.assign(nk * ns, 0.0);
    s.station_load.assign(ns, 0.0);
    double xcost = 0.0;  // sum over x of the true (non-amortized) cost
    simplex.for_each_basic([&](std::size_t a, std::size_t b, double f) {
      if (a >= m || b >= nu) return;  // slack source / overflow sink
      const std::size_t e = s.cols[a];
      const std::size_t i = s.ups[b];
      const double xei = std::clamp(f / s.res[e], 0.0, 1.0);
      if (xei <= 0.0) return;
      const std::size_t k = s.svc[e];
      s.x[e * ns + i] = xei;
      s.y[k * ns + i] = std::max(s.y[k * ns + i], xei);
      s.attracted[k * ns + i] += xei * s.res[e];
      s.station_load[i] += f;
      xcost += xei * s.base_cost[e * ns + i];
    });
    for (std::size_t e = 0; e < n; ++e) {
      std::size_t k = s.svc[e];
      if (s.res[e] <= 0.0) {
        // Zero-demand column: pin to its cheapest *up* station (no
        // capacity use, no instantiation pressure). Down stations are
        // skipped so shed/idle requests never ride out a slot on an
        // outaged host.
        std::size_t best_i = 0;
        double best_cost = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < ns; ++i) {
          if (!p.station_up(i)) continue;
          double c = col_access(e, i);
          if (c < best_cost) {
            best_cost = c;
            best_i = i;
          }
        }
        s.x[e * ns + best_i] = 1.0;
        s.y[k * ns + best_i] = std::max(s.y[k * ns + best_i], 1.0);
        xcost += s.base_cost[e * ns + best_i];
        continue;
      }
      if (!shortfall) continue;
      double placed = 0.0;
      for (std::size_t i = 0; i < ns; ++i) placed += s.x[e * ns + i];
      if (placed < 1.0 - 1e-9) {
        // Greedy repair of the unrouted fraction: cheapest up station
        // with room for it, else the up station with the most residual
        // capacity (capacity violated, but Σx = 1 is preserved and the
        // overload is scored honestly by the true-cost objective).
        double leftover = 1.0 - placed;
        double extra = leftover * s.res[e];
        std::size_t best_i = ns;
        double best_cost = std::numeric_limits<double>::infinity();
        std::size_t spill_i = ns;
        double spill_room = -std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < ns; ++i) {
          double cap = p.station_capacity_mhz(i);
          if (cap <= 0.0) continue;  // down station: never a repair host
          double room = cap - s.station_load[i];
          if (room > spill_room) {
            spill_room = room;
            spill_i = i;
          }
          if (room + 1e-9 < extra) continue;
          double c = arc_cost(e, i);
          if (c < best_cost) {
            best_cost = c;
            best_i = i;
          }
        }
        if (best_i == ns) best_i = spill_i;
        if (best_i == ns) best_i = 0;  // whole network down: arbitrary host
        s.station_load[best_i] += extra;
        double xei = s.x[e * ns + best_i] + leftover;
        s.x[e * ns + best_i] = xei;
        s.y[k * ns + best_i] = std::max(s.y[k * ns + best_i], xei);
        s.attracted[k * ns + best_i] += extra;
        xcost += leftover * s.base_cost[e * ns + best_i];
      }
    }
    double ycost = 0.0;
    for (std::size_t k = 0; k < nk; ++k) {
      for (std::size_t i = 0; i < ns; ++i) {
        double yki = s.y[k * ns + i];
        if (yki > 0.0) ycost += yki * p.instantiation_delay_ms(i, k);
      }
    }
    double objective = (xcost + ycost) / objective_divisor;

    bool improved =
        !have_best || objective < best_objective - 1e-9 * (1.0 + objective);
    if (improved) {
      best_objective = objective;
      s.x_best = s.x;
      s.y_best = s.y;
      have_best = true;
    } else if (round > 0) {
      break;  // re-pricing converged (or started oscillating): stop early
    }
    if (shortfall) break;  // capacity is round-invariant: re-pricing can't help
    MECSC_COUNT("frac.repricing_rounds", 1.0);
    std::swap(s.inst_base, s.attracted);
  }

  // Remember which stations carried each column's flow — next solve's
  // warm arcs (demands and θ drift slowly between slots, so the same
  // arcs tend to be basic again).
  for (std::size_t e = 0; e < n; ++e) {
    s.warm[e].clear();
    const double* row = &s.x_best[e * ns];
    for (std::size_t i = 0; i < ns; ++i) {
      if (row[i] > 1e-12) s.warm[e].push_back(static_cast<std::uint32_t>(i));
    }
  }

  FractionalSolution out;
  out.objective = best_objective;
  out.x.assign(n, std::vector<double>(ns));
  for (std::size_t e = 0; e < n; ++e) {
    std::copy_n(&s.x_best[e * ns], ns, out.x[e].begin());
  }
  out.y.assign(nk, std::vector<double>(ns));
  for (std::size_t k = 0; k < nk; ++k) {
    std::copy_n(&s.y_best[k * ns], ns, out.y[k].begin());
  }
  return out;
}

double FractionalSolver::objective(const FractionalSolution& sol,
                                   const std::vector<double>& demands,
                                   const std::vector<double>& theta) const {
  const CachingProblem& p = *problem_;
  const std::size_t nr = p.num_requests();
  const std::size_t ns = p.num_stations();
  MECSC_CHECK(sol.x.size() == nr && demands.size() == nr && theta.size() == ns);
  double total = 0.0;
  for (std::size_t l = 0; l < nr; ++l) {
    for (std::size_t i = 0; i < ns; ++i) {
      double xli = sol.x[l][i];
      if (xli <= 0.0) continue;
      total += xli * (demands[l] * (theta[i] + p.tx_unit_ms(l)) +
                      p.access_latency_ms(l, i));
    }
  }
  for (std::size_t k = 0; k < p.num_services(); ++k) {
    for (std::size_t i = 0; i < ns; ++i) {
      double yki = sol.y[k][i];
      if (yki <= 0.0) continue;
      total += yki * p.instantiation_delay_ms(i, k);
    }
  }
  return total / static_cast<double>(nr);
}

}  // namespace mecsc::core
