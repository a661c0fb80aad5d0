// Tests for the simulation harness: Simulator, RunResult metrics,
// Scenario construction, and the parallel replication runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/baselines.h"
#include "algorithms/ol_gd.h"
#include "net/generators.h"
#include "sim/replication.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace mecsc::sim {
namespace {

ScenarioParams small_params(std::uint64_t seed, bool bursty = false) {
  ScenarioParams p;
  p.num_stations = 15;
  p.horizon = 12;
  p.bursty = bursty;
  p.workload.num_requests = 18;
  p.workload.num_services = 4;
  p.history_horizon = 30;
  p.seed = seed;
  return p;
}

TEST(Scenario, ConstructsGtItm) {
  Scenario s(small_params(1));
  EXPECT_EQ(s.topology().num_stations(), 15u);
  EXPECT_EQ(s.problem().num_requests(), 18u);
  EXPECT_EQ(s.demands().horizon(), 12u);
  EXPECT_EQ(s.simulator().horizon(), 12u);
  EXPECT_GT(s.theta_prior(), s.d_min());
  EXPECT_LT(s.theta_prior(), s.d_max());
  EXPECT_GT(s.trace().rows().size(), 0u);
}

TEST(Scenario, ConstructsAs1755) {
  ScenarioParams p = small_params(2);
  p.net = ScenarioParams::NetKind::kAs1755;
  p.num_stations = 40;
  Scenario s(p);
  EXPECT_EQ(s.topology().num_stations(), 40u);
  bool any_bottleneck = false;
  for (const auto& l : s.topology().links()) any_bottleneck |= l.bottleneck;
  EXPECT_TRUE(any_bottleneck);
}

TEST(Scenario, BurstyDemandsVary) {
  Scenario s(small_params(3, /*bursty=*/true));
  bool varies = false;
  for (std::size_t l = 0; l < s.demands().num_requests() && !varies; ++l) {
    auto series = s.demands().series(l);
    for (double v : series) {
      if (std::abs(v - series[0]) > 1e-9) varies = true;
    }
  }
  EXPECT_TRUE(varies);
}

TEST(Scenario, GivenDemandsConstantPerRequest) {
  Scenario s(small_params(4, /*bursty=*/false));
  for (std::size_t l = 0; l < s.demands().num_requests(); ++l) {
    auto series = s.demands().series(l);
    for (double v : series) EXPECT_DOUBLE_EQ(v, series[0]);
  }
}

TEST(Scenario, DeterministicForSameSeed) {
  Scenario a(small_params(5));
  Scenario b(small_params(5));
  EXPECT_EQ(a.topology().num_links(), b.topology().num_links());
  for (std::size_t l = 0; l < a.demands().num_requests(); ++l) {
    for (std::size_t t = 0; t < a.demands().horizon(); ++t) {
      EXPECT_DOUBLE_EQ(a.demands().at(l, t), b.demands().at(l, t));
    }
  }
}

TEST(Scenario, AlgorithmSeedsDistinct) {
  Scenario s(small_params(6));
  EXPECT_NE(s.algorithm_seed(0), s.algorithm_seed(1));
  EXPECT_EQ(s.algorithm_seed(0), s.algorithm_seed(0));
}

TEST(Simulator, RunProducesOneRecordPerSlot) {
  Scenario s(small_params(7));
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(),
                                     algorithms::OlOptions{}, s.algorithm_seed(0));
  RunResult r = s.simulator().run(*algo);
  EXPECT_EQ(r.algorithm, "OL_GD");
  ASSERT_EQ(r.slots.size(), 12u);
  for (const auto& rec : r.slots) {
    EXPECT_GT(rec.avg_delay_ms, 0.0);
    EXPECT_GE(rec.decision_time_ms, 0.0);
    EXPECT_NEAR(rec.capacity_violation_mhz, 0.0, 1e-6);
  }
  EXPECT_GT(r.mean_delay_ms(), 0.0);
  EXPECT_GE(r.total_decision_time_ms(), 0.0);
  EXPECT_GT(r.tail_mean_delay_ms(5), 0.0);
}

TEST(Simulator, IdenticalSamplePathsForSameAlgorithmSeed) {
  Scenario s(small_params(8));
  auto a1 = algorithms::make_ol_gd(s.problem(), s.demands(),
                                   algorithms::OlOptions{}, 99);
  auto a2 = algorithms::make_ol_gd(s.problem(), s.demands(),
                                   algorithms::OlOptions{}, 99);
  RunResult r1 = s.simulator().run(*a1);
  RunResult r2 = s.simulator().run(*a2);
  ASSERT_EQ(r1.slots.size(), r2.slots.size());
  for (std::size_t t = 0; t < r1.slots.size(); ++t) {
    EXPECT_DOUBLE_EQ(r1.slots[t].avg_delay_ms, r2.slots[t].avg_delay_ms);
  }
}

TEST(Simulator, RegretTrackingWhenEnabled) {
  ScenarioParams p = small_params(9);
  p.track_regret = true;
  p.horizon = 6;
  Scenario s(p);
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(),
                                     algorithms::OlOptions{}, 1);
  RunResult r = s.simulator().run(*algo);
  ASSERT_EQ(r.cumulative_regret.size(), 6u);
  for (std::size_t t = 1; t < 6; ++t) {
    EXPECT_GE(r.cumulative_regret[t] + 1e-12, r.cumulative_regret[t - 1]);
  }
}

TEST(Simulator, NoRegretSeriesWhenDisabled) {
  Scenario s(small_params(10));
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(),
                                     algorithms::OlOptions{}, 1);
  RunResult r = s.simulator().run(*algo);
  EXPECT_TRUE(r.cumulative_regret.empty());
}

TEST(RunResult, EmptyStatsAreZero) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.mean_delay_ms(), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_decision_time_ms(), 0.0);
  EXPECT_DOUBLE_EQ(r.tail_mean_delay_ms(5), 0.0);
}

// Runs the bench-style replication body under a forced worker count and
// returns (per-rep mean delays, merge order).
std::pair<std::vector<double>, std::vector<std::size_t>> run_reps(
    const char* workers, std::size_t count) {
  setenv("MECSC_WORKERS", workers, 1);
  std::vector<double> delays;
  std::vector<std::size_t> merge_order;
  run_replications(
      count,
      [&](std::size_t rep) {
        ScenarioParams p = small_params(2000 + rep);
        Scenario s(p);
        algorithms::OlOptions opt;
        opt.theta_prior = s.theta_prior();
        auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                           s.algorithm_seed(0));
        return s.simulator().run(*algo).mean_delay_ms();
      },
      [&](std::size_t rep, double& d) {
        delays.push_back(d);
        merge_order.push_back(rep);
      });
  unsetenv("MECSC_WORKERS");
  return {delays, merge_order};
}

TEST(Replication, ParallelRunIsBitwiseIdenticalToSequential) {
  // Each replication seeds all of its randomness from `rep`, so fanning
  // the bodies out over jthread workers and merging in rep order must
  // reproduce the sequential run EXACTLY — same doubles, same order —
  // regardless of worker count or scheduling.
  const std::size_t kReps = 4;
  auto [seq, seq_order] = run_reps("1", kReps);
  auto [par, par_order] = run_reps("3", kReps);
  ASSERT_EQ(seq.size(), kReps);
  ASSERT_EQ(par.size(), kReps);
  for (std::size_t i = 0; i < kReps; ++i) {
    EXPECT_EQ(seq[i], par[i]) << "rep " << i << " diverged under parallelism";
    EXPECT_EQ(seq_order[i], i);
    EXPECT_EQ(par_order[i], i);
  }
  for (std::size_t i = 0; i < kReps; ++i) {
    EXPECT_GT(seq[i], 0.0);
  }
}

TEST(Replication, PropagatesBodyException) {
  setenv("MECSC_WORKERS", "2", 1);
  EXPECT_THROW(
      run_replications(
          3,
          [](std::size_t rep) -> int {
            if (rep == 1) throw std::runtime_error("boom");
            return static_cast<int>(rep);
          },
          [](std::size_t, int&) {}),
      std::runtime_error);
  unsetenv("MECSC_WORKERS");
}

// The scenario as it was built before demands were realised in place
// and unit delays drawn per slot: every horizon-sized table eagerly,
// from the public pieces, in the original order. Scenario must match it
// bit for bit.
struct EagerScenario {
  std::unique_ptr<net::Topology> topology;
  std::unique_ptr<workload::DemandMatrix> demands;
  std::vector<workload::TraceRow> trace_rows;
  double c_unit_mhz = 0.0;
  bool derated = false;
  std::vector<double> historical;
  std::vector<std::vector<double>> unit_delays;
};

EagerScenario build_eager(const ScenarioParams& params) {
  EagerScenario e;
  common::Rng root(params.seed);
  common::Rng topo_rng = root.split();
  common::Rng workload_rng = root.split();
  common::Rng problem_rng = root.split();
  common::Rng demand_rng = root.split();
  common::Rng delay_rng = root.split();
  common::Rng trace_rng = root.split();
  root.split();  // algorithm seed root
  const std::uint64_t fault_seed = root.split().seed();

  net::GtItmParams gp;
  gp.num_stations = params.num_stations;
  e.topology = std::make_unique<net::Topology>(
      net::generate_gtitm_like(gp, topo_rng));
  workload::WorkloadParams wp = params.workload;
  const std::size_t total = params.history_horizon + params.horizon;
  wp.horizon = total;
  workload::Workload w =
      workload::make_workload(*e.topology, wp, workload_rng, params.bursty);

  const std::size_t n = w.requests.size();
  workload::DemandMatrix full =
      workload::realize_demands(w.requests, w.processes, total, demand_rng);
  e.demands = std::make_unique<workload::DemandMatrix>(n, params.horizon);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t t = 0; t < params.horizon; ++t) {
      e.demands->set(l, t, full.at(l, params.history_horizon + t));
    }
  }
  const std::size_t hist_len = std::max<std::size_t>(params.history_horizon, 1);
  workload::DemandMatrix hist(n, hist_len);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t t = 0; t < hist_len; ++t) hist.set(l, t, full.at(l, t));
  }
  const double fraction =
      params.history_horizon > 0 ? params.trace_sample_fraction : 1.0;
  e.trace_rows = workload::Trace::from_demands(w.requests, hist, wp.num_clusters,
                                               fraction, trace_rng)
                     .rows();

  // The column-wise derate scan.
  double worst_slot_units = 0.0;
  double worst_single = 0.0;
  for (std::size_t t = 0; t < params.horizon; ++t) {
    double slot_total = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      slot_total += e.demands->at(l, t);
      worst_single = std::max(worst_single, e.demands->at(l, t));
    }
    worst_slot_units = std::max(worst_slot_units, slot_total);
  }
  double biggest_station = 0.0;
  for (const auto& bs : e.topology->stations()) {
    biggest_station = std::max(biggest_station, bs.capacity_mhz);
  }
  core::ProblemOptions popt = params.problem;
  double limit = popt.c_unit_mhz;
  if (worst_slot_units > 0.0) {
    limit = std::min(limit, 0.9 * e.topology->total_capacity_mhz() / worst_slot_units);
  }
  if (worst_single > 0.0) {
    limit = std::min(limit, 0.9 * biggest_station / worst_single);
  }
  e.derated = limit < popt.c_unit_mhz;
  popt.c_unit_mhz = std::min(popt.c_unit_mhz, limit);
  e.c_unit_mhz = popt.c_unit_mhz;

  core::CachingProblem problem(e.topology.get(), w.services, w.requests, popt,
                               problem_rng);
  if (params.fault.mode != fault::FaultMode::kOff) {
    fault::FaultInjector injector(
        problem, fault::FaultPlan::generate(*e.topology, params.horizon,
                                            params.fault, fault_seed));
    injector.apply_to_demands(*e.demands);
  }

  net::NetworkDelayModel model =
      net::make_delay_model(*e.topology, params.delay_kind, delay_rng);
  e.historical = model.realize(delay_rng);
  for (std::size_t t = 0; t < params.horizon; ++t) {
    e.unit_delays.push_back(model.realize(delay_rng));
  }
  return e;
}

bool same_rows(const std::vector<workload::TraceRow>& a,
               const std::vector<workload::TraceRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user || a[i].cluster != b[i].cluster ||
        a[i].slot != b[i].slot || a[i].demand != b[i].demand) {
      return false;
    }
  }
  return true;
}

// (bursty, history_horizon, faults on)
class EagerEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t, bool>> {};

TEST_P(EagerEquivalenceTest, ScenarioMatchesEagerBuildBitForBit) {
  const auto [bursty, history, faults] = GetParam();
  ScenarioParams p = small_params(77, bursty);
  p.horizon = 40;
  p.history_horizon = history;
  p.fault_env_override = false;
  p.fault.mode = faults ? fault::FaultMode::kChurn : fault::FaultMode::kOff;
  const EagerScenario e = build_eager(p);
  Scenario s(p);

  ASSERT_EQ(s.demands().num_requests(), e.demands->num_requests());
  ASSERT_EQ(s.demands().horizon(), e.demands->horizon());
  for (std::size_t l = 0; l < e.demands->num_requests(); ++l) {
    EXPECT_EQ(s.demands().series(l), e.demands->series(l)) << "request " << l;
  }
  EXPECT_TRUE(same_rows(s.trace().rows(), e.trace_rows));
  EXPECT_EQ(s.problem().options().c_unit_mhz, e.c_unit_mhz);
  EXPECT_EQ(s.c_unit_derated(), e.derated);
  EXPECT_EQ(s.historical_delay_estimates(), e.historical);

  // Scrambled read order: lazy per-slot draws must not depend on it.
  std::vector<std::size_t> order(p.horizon);
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  common::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);
  for (std::size_t t : order) {
    EXPECT_EQ(s.simulator().unit_delays(t), e.unit_delays[t]) << "slot " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EagerEquivalenceTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(std::size_t{0}, std::size_t{96}),
                       ::testing::Bool()));

TEST(Simulator, ConcurrentUnitDelayReadsMatchSequentialTwin) {
  ScenarioParams p = small_params(31, /*bursty=*/true);
  p.horizon = 400;
  const Scenario shared(p);
  const Scenario twin(p);

  // Two readers over interleaved slots of one scenario: one ascending
  // over the even slots, one descending over the odd ones, so either may
  // be the one that draws a slot.
  std::vector<std::vector<double>> seen(p.horizon);
  std::thread up([&] {
    for (std::size_t t = 0; t < p.horizon; t += 2) {
      seen[t] = shared.simulator().unit_delays(t);
    }
  });
  std::thread down([&] {
    for (std::size_t t = p.horizon - 1; t < p.horizon; t -= 2) {
      seen[t] = shared.simulator().unit_delays(t);
    }
  });
  up.join();
  down.join();
  for (std::size_t t = 0; t < p.horizon; ++t) {
    EXPECT_EQ(seen[t], twin.simulator().unit_delays(t)) << "slot " << t;
  }
}

TEST(Simulator, BaselinesRunOnScenario) {
  Scenario s(small_params(11));
  auto greedy = algorithms::make_greedy_gd(s.problem(), s.demands(), s.historical_delay_estimates());
  auto pri = algorithms::make_pri_gd(s.problem(), s.demands(), s.historical_delay_estimates());
  RunResult rg = s.simulator().run(*greedy);
  RunResult rp = s.simulator().run(*pri);
  EXPECT_GT(rg.mean_delay_ms(), 0.0);
  EXPECT_GT(rp.mean_delay_ms(), 0.0);
}

}  // namespace
}  // namespace mecsc::sim
