// The two batch workloads: OL_GAN on the paper's Fig. 6 regime
// (paper_gan) and OL_GD on 100k aggregated requests (scale_100k).
//
// A timed run sets the workload up several times, each time on its own
// scenario seed derived from --seed, and drives each instance through
// sim::SlotEngine::step — the protocol sim::Simulator::run executes —
// timing every slot from outside. A traced run sets up once, records
// spans, and shadow-replays every decide() (shadow.h).

#include <memory>
#include <string>
#include <vector>

#include "algorithms/ol_gd.h"
#include "common.h"
#include "core/assignment.h"
#include "obs/metrics.h"
#include "predict/gan_predictor.h"
#include "shadow.h"
#include "sim/scenario.h"
#include "sim/slot_engine.h"

namespace perfbench {

namespace algorithms = mecsc::algorithms;
namespace core = mecsc::core;
namespace predict = mecsc::predict;
namespace sim = mecsc::sim;

namespace {

struct BatchWorkload {
  const char* name;
  std::size_t requests;
  /// Slots of one instance (the scenario horizon).
  std::size_t slots;
  /// Instances a timed run sets up and drives.
  std::size_t instances;
  /// Pre-run history the predictors train on.
  std::size_t history_horizon;
  /// OL_GAN (GAN-predicted demands) instead of OL_GD (given demands).
  bool gan;
  core::SolverTier tier;
  /// The path the workload's description names: the tier every slot
  /// should realise, and whether the LP runs over demand classes.
  core::SolverTier expected_tier;
  bool expected_aggregated;
};

// Fig. 6: 100 stations, 100 bursty requests, OL_GAN with the default GAN
// training, 100 slots. kAuto aggregation and tier resolve to the
// per-request flow solve at this size.
constexpr BatchWorkload kPaperGan{"paper_gan", 100, 100, 3, 96, true,
                                  core::SolverTier::kAuto,
                                  core::SolverTier::kFlow, false};

// 100k bursty requests with given demands, aggregated (kAuto) and pinned
// to the Lagrangian tier: kAuto would resolve to flow below 4096 classes,
// and flow takes about a minute per slot here.
constexpr BatchWorkload kScale100k{"scale_100k", 100000, 25, 10, 4, false,
                                   core::SolverTier::kLagrangian,
                                   core::SolverTier::kLagrangian, true};

std::uint64_t instance_seed(std::uint64_t seed, std::size_t instance) {
  return seed * 1000003ULL + instance;
}

sim::ScenarioParams scenario_params(const BatchWorkload& w, std::uint64_t seed) {
  sim::ScenarioParams p;
  p.num_stations = 100;
  p.horizon = w.slots;
  p.history_horizon = w.history_horizon;
  p.bursty = true;
  p.workload.num_requests = w.requests;
  p.aggregate = core::AggregateMode::kAuto;
  p.solver = w.tier;
  p.fault_env_override = false;
  p.seed = seed;
  return p;
}

algorithms::OlOptions ol_options(const sim::Scenario& s) {
  algorithms::OlOptions opt;
  opt.theta_prior = s.theta_prior();
  opt.aggregate = s.aggregate_mode();
  opt.solver = s.solver_tier();
  opt.lagrangian = core::LagrangianOptions{};  // defaults, not the env
  return opt;
}

/// Forwarding predictor: times the GAN's predict() inside the real
/// decide() and its observe() inside the real observe().
class TimedPredictor final : public predict::DemandPredictor {
 public:
  TimedPredictor(std::unique_ptr<predict::DemandPredictor> inner,
                 SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}
  std::string name() const override { return inner_->name(); }
  std::vector<double> predict(std::size_t t) override {
    const Clock::time_point start = Clock::now();
    std::vector<double> out = inner_->predict(t);
    record("predict.predict", t, start, predict_ms);
    return out;
  }
  void observe(std::size_t t, const std::vector<double>& demands) override {
    const Clock::time_point start = Clock::now();
    inner_->observe(t, demands);
    record("predict.observe", t, start, observe_ms);
  }

  int parent_span = -1;
  std::vector<double> predict_ms;
  std::vector<double> observe_ms;

 private:
  void record(const char* name, std::size_t t, Clock::time_point start,
              std::vector<double>& into) {
    const Clock::time_point end = Clock::now();
    into.push_back(ms_between(start, end));
    spans_->add(name, static_cast<long>(t), parent_span, start, end);
  }
  std::unique_ptr<predict::DemandPredictor> inner_;
  SpanRecorder* spans_;
};

struct Instance {
  std::unique_ptr<sim::Scenario> scenario;
  algorithms::OlOptions options;
  std::unique_ptr<algorithms::OnlineCachingAlgorithm> algo;
  TimedPredictor* timed_predictor = nullptr;  // traced GAN runs only
  double build_s = 0.0;
  double train_s = 0.0;
  double setup_s = 0.0;
};

Instance set_up(const BatchWorkload& w, std::uint64_t seed,
                SpanRecorder* spans) {
  Instance in;
  const int setup_span = spans ? spans->open("setup", -1) : -1;
  const Clock::time_point start = Clock::now();
  in.scenario = std::make_unique<sim::Scenario>(scenario_params(w, seed));
  const Clock::time_point built = Clock::now();
  in.build_s = seconds_between(start, built);
  const sim::Scenario& s = *in.scenario;
  in.options = ol_options(s);
  if (w.gan) {
    std::unique_ptr<predict::DemandPredictor> gan =
        std::make_unique<predict::GanDemandPredictor>(
            s.workload().requests, s.trace(), predict::GanPredictorOptions{},
            s.algorithm_seed(10));
    const Clock::time_point trained = Clock::now();
    in.train_s = seconds_between(built, trained);
    if (spans != nullptr) {
      spans->add("predict.train", -1, setup_span, built, trained);
      auto timed = std::make_unique<TimedPredictor>(std::move(gan), spans);
      in.timed_predictor = timed.get();
      gan = std::move(timed);
    }
    in.algo = std::make_unique<algorithms::OnlineCachingAlgorithm>(
        "OL_GAN", s.problem(), std::move(gan), in.options, s.algorithm_seed(0));
  } else {
    in.algo = std::make_unique<algorithms::OnlineCachingAlgorithm>(
        "OL_GD", s.problem(), &s.demands(), in.options, s.algorithm_seed(0));
  }
  const Clock::time_point ready = Clock::now();
  in.setup_s = seconds_between(start, ready);
  if (spans != nullptr) {
    spans->add("sim.scenario.build", -1, setup_span, start, built);
    spans->close(setup_span);
  }
  return in;
}

/// Per-slot samples and tallies of one or more driven instances.
struct Samples {
  std::vector<double> decide_ms;
  std::vector<double> step_ms;
  double loop_s = 0.0;
  /// Per driven instance, the mean realised Eq. 3 delay and the mean of
  /// its decision-dependent part (Eq. 3 minus the wireless hop).
  std::vector<double> mean_delay_ms;
  std::vector<double> decision_delay_ms;
  std::size_t delay_mismatches = 0;
  std::size_t invalid_assignments = 0;
  std::size_t slots = 0;
  std::size_t lagrangian_slots = 0;
  std::size_t fallback_slots = 0;
  std::size_t overloaded_slots = 0;  // true demands exceed a capacity
  std::vector<double> classes;
};

std::string path_name(core::SolverTier tier, int depth, bool aggregated) {
  return std::string("tier=") + core::solver_tier_name(tier) +
         " depth=" + std::to_string(depth) +
         (aggregated ? " aggregated" : " per-request");
}

// Every request is assigned once (one entry per request) to a station in
// range, and that station caches the request's service.
bool valid_assignment(const core::CachingProblem& problem,
                      const core::Assignment& a) {
  if (a.station_of_request.size() != problem.num_requests()) return false;
  if (a.cached.size() != problem.num_services()) return false;
  for (std::size_t l = 0; l < a.station_of_request.size(); ++l) {
    const std::size_t i = a.station_of_request[l];
    if (i >= problem.num_stations()) return false;
    const std::size_t k = problem.requests()[l].service_id;
    if (a.cached[k].size() != problem.num_stations() || !a.cached[k][i]) {
      return false;
    }
  }
  return true;
}

/// Drives one instance over its horizon. With `shadow` set, every slot
/// is shadow-replayed and its phases appended to `phases`.
void drive(const BatchWorkload& w, Instance& in, Samples& out, Result& result,
           SpanRecorder* spans, ShadowReplay* shadow,
           std::vector<ShadowSlot>* phases) {
  const sim::Scenario& s = *in.scenario;
  const core::CachingProblem& problem = s.problem();
  sim::SlotEngine engine(problem);
  algorithms::OnlineCachingAlgorithm& algo = *in.algo;
  double delay_sum = 0.0, wireless_sum = 0.0;
  for (std::size_t t = 0; t < w.slots; ++t) {
    const long slot = static_cast<long>(t);
    // The slot loop as sim::Simulator::run runs it: fetch the slot's
    // demands, step. The checks and the shadow replay are not timed.
    const Clock::time_point slot_start = Clock::now();
    const std::vector<double> demands = s.demands().slot(t);
    const std::vector<double>& delays = s.simulator().unit_delays(t);
    algorithms::OlGdState before;
    if (shadow != nullptr) before = algo.export_state();

    const int slot_span = spans ? spans->open("slot", slot) : -1;
    const int step_span =
        spans ? spans->open("sim.slot_engine.step", slot, slot_span) : -1;
    if (in.timed_predictor != nullptr) in.timed_predictor->parent_span = step_span;
    const Clock::time_point step_start = Clock::now();
    const sim::SlotRecord rec = engine.step(t, algo, demands, delays);
    const Clock::time_point step_end = Clock::now();
    if (spans != nullptr) {
      spans->close(step_span);
      // decide() is the first phase of step(); its duration comes from
      // the engine's own span (SlotRecord::decision_time_ms).
      spans->add("algorithms.ol_gd.decide", slot, step_span, step_start,
                 step_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      rec.decision_time_ms)));
    }
    out.decide_ms.push_back(rec.decision_time_ms);
    out.step_ms.push_back(ms_between(step_start, step_end));
    out.loop_s += seconds_between(slot_start, step_end);

    const core::Assignment& decision = engine.last_decision();
    const bool valid = valid_assignment(problem, decision);
    if (!valid) ++out.invalid_assignments;
    const double recomputed =
        core::realized_average_delay(problem, decision, demands, delays);
    if (recomputed != rec.avg_delay_ms) ++out.delay_mismatches;
    delay_sum += rec.avg_delay_ms;
    wireless_sum += wireless_delay_ms(problem, demands);

    const core::SolverTier tier = algo.last_solver_tier();
    const int depth = algo.last_fallback_depth();
    const bool aggregated = algo.last_num_classes() > 0;
    if (tier == core::SolverTier::kLagrangian) ++out.lagrangian_slots;
    if (depth > 0) ++out.fallback_slots;
    out.classes.push_back(static_cast<double>(algo.last_num_classes()));
    // A decision fails when it overloads a station for the demands
    // decide() planned with. Overload against the true demands is a
    // prediction miss OL_GAN pays for in delay (congestion), not a
    // failed decision; it is tallied separately.
    const double planned_violation =
        core::capacity_violation(problem, decision, algo.last_demands());
    if (rec.capacity_violation_mhz > 0.0) ++out.overloaded_slots;
    ++result.attempted;
    if (!valid || planned_violation > 0.0 || depth >= 2) ++result.failed;
    result.count_path(path_name(tier, depth, aggregated));
    ++out.slots;

    if (shadow != nullptr) {
      const int replay_span = spans->open("shadow.replay", slot, slot_span);
      phases->push_back(
          shadow->replay(t, before, algo, decision, spans, replay_span));
      spans->close(replay_span);
    }
    if (spans != nullptr) spans->close(slot_span);
  }
  engine.end_run();
  const double slots = static_cast<double>(w.slots);
  out.mean_delay_ms.push_back(delay_sum / slots);
  out.decision_delay_ms.push_back((delay_sum - wireless_sum) / slots);
}

// Checks shared by timed and traced runs, plus the loud line when a
// slot ran another path than the workload's description names.
void add_output_checks(const BatchWorkload& w, const Samples& s,
                       Result& result) {
  const std::string expected =
      path_name(w.expected_tier, 0, w.expected_aggregated);
  for (const auto& [path, n] : result.paths) {
    if (path != expected) {
      result.warnings.push_back("PATH MISMATCH: " + std::string(w.name) +
                                " ran " + path + " on " +
                                std::to_string(n) + " slots; its description "
                                "names " + expected);
    }
  }
  result.note("overloaded_slots_true_demand",
              static_cast<double>(s.overloaded_slots), "count");
  result.check("assignment_valid", s.invalid_assignments == 0,
               std::to_string(s.invalid_assignments) + " invalid of " +
                   std::to_string(s.slots) + " slots");
  result.check("mean_delay_recomputed", s.delay_mismatches == 0,
               std::to_string(s.delay_mismatches) +
                   " slots differ from core::realized_average_delay");
}

// Instances are set up and driven until at least `w.instances` ran and
// the slot loops took --seconds. The delay metrics average the first
// `w.instances` only, so they depend on the seed alone.
Result run_timed(const BatchWorkload& w, const RunOptions& options) {
  Result result;
  Samples samples;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < w.instances || samples.loop_s < options.seconds;
       ++i) {
    Instance in = set_up(w, instance_seed(options.seed, i), nullptr);
    setup_s.push_back(in.setup_s);
    drive(w, in, samples, result, nullptr, nullptr, nullptr);
  }
  add_output_checks(w, samples, result);
  const auto first = [&](const std::vector<double>& v) {
    return mean(std::vector<double>(v.begin(), v.begin() + w.instances));
  };
  result.metric("setup_s", median(setup_s), "s");
  result.metric("decide_ms_p50", percentile(samples.decide_ms, 50), "ms");
  result.metric("decide_ms_p90", percentile(samples.decide_ms, 90), "ms");
  result.metric("slots_per_s", static_cast<double>(samples.slots) / samples.loop_s,
                "1/s");
  result.metric("commit_ms_p50", percentile(samples.step_ms, 50), "ms");
  result.metric("commit_ms_p90", percentile(samples.step_ms, 90), "ms");
  result.metric("decision_delay_ms", first(samples.decision_delay_ms), "ms");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.note("mean_delay_ms", first(samples.mean_delay_ms), "ms");
  result.note("instances", static_cast<double>(setup_s.size()), "count");
  // The instance a traced run drives, for the tracing overhead.
  result.note("first_instance_decide_ms_p50",
              percentile(std::vector<double>(samples.decide_ms.begin(),
                                             samples.decide_ms.begin() + w.slots),
                         50),
              "ms");
  result.note("decide_samples", static_cast<double>(samples.decide_ms.size()),
              "count");
  return result;
}

Result run_traced(const BatchWorkload& w, const RunOptions& options) {
  Result result;
  SpanRecorder spans;
  mecsc::obs::Registry& registry = mecsc::obs::default_registry();
  Instance in = set_up(w, instance_seed(options.seed, 0), &spans);
  ShadowReplay shadow(in.scenario->problem(), in.options);
  const double arcs0 = registry.counter("mcf.arcs_scanned").value();
  const double augs0 = registry.counter("mcf.augmentations").value();
  Samples samples;
  std::vector<ShadowSlot> phases;
  drive(w, in, samples, result, &spans, &shadow, &phases);
  const double n = static_cast<double>(samples.slots);
  const double arcs = registry.counter("mcf.arcs_scanned").value() - arcs0;
  const double augs = registry.counter("mcf.augmentations").value() - augs0;

  add_output_checks(w, samples, result);
  std::size_t matched = 0;
  std::string first_mismatch;
  double classing = 0, flow = 0, lag = 0, rounding = 0, lag_iters = 0,
         lag_gap = 0;
  std::size_t lag_solves = 0;
  for (std::size_t t = 0; t < phases.size(); ++t) {
    const ShadowSlot& p = phases[t];
    if (p.matched) {
      ++matched;
    } else if (first_mismatch.empty()) {
      first_mismatch = "slot " + std::to_string(t) + ": " + p.mismatch;
    }
    classing += p.classing_ms;
    flow += p.flow_ms;
    lag += p.lagrangian_ms;
    rounding += p.rounding_ms;
    if (p.lagrangian_ran) {
      ++lag_solves;
      lag_iters += static_cast<double>(p.lagrangian_iterations);
      lag_gap += p.lagrangian_gap;
    }
  }
  result.check("shadow_replay_bit_identical", matched == phases.size(),
               std::to_string(matched) + "/" + std::to_string(phases.size()) +
                   " slots" +
                   (first_mismatch.empty() ? "" : "; " + first_mismatch));

  const double predict_ms =
      in.timed_predictor ? mean(in.timed_predictor->predict_ms) : 0.0;
  const double observe_ms =
      in.timed_predictor ? mean(in.timed_predictor->observe_ms) : 0.0;
  const double decide = mean(samples.decide_ms);
  const double phase_sum = predict_ms + (classing + flow + lag + rounding) / n;
  const double per_lag = lag_solves ? 1.0 / static_cast<double>(lag_solves) : 0.0;
  if (phase_sum < 0.9 * decide) {
    result.warnings.push_back("COVERAGE: " + std::string(w.name) +
                              ": the replayed phases cover less than 90% of "
                              "decide(); a layer is missing from the breakdown");
  }

  result.metric("sim.scenario.build_s", in.build_s, "s");
  result.metric("predict.train_s", in.train_s, "s");
  result.metric("predict.predict_ms", predict_ms, "ms");
  result.metric("predict.observe_ms", observe_ms, "ms");
  result.metric("core.aggregation.build_ms", classing / n, "ms");
  result.metric("core.aggregation.classes", mean(samples.classes), "count");
  result.metric("core.fractional_solver.solve_ms", flow / n, "ms");
  result.metric("flow.mcf.arcs_scanned", arcs / n, "count");
  result.metric("flow.mcf.augmentations", augs / n, "count");
  result.metric("core.lagrangian_solver.solve_ms", lag / n, "ms");
  result.metric("core.lagrangian_solver.iterations", lag_iters * per_lag, "count");
  result.metric("core.lagrangian_solver.gap", lag_gap * per_lag, "ratio");
  result.metric("core.rounding.round_ms", rounding / n, "ms");
  result.metric("sim.slot_engine.score_observe_ms",
                mean(samples.step_ms) - decide, "ms");
  result.metric("algorithms.ol_gd.decide_ms", decide, "ms");
  result.metric("algorithms.ol_gd.unexplained_ms", decide - phase_sum, "ms");
  result.metric("algorithms.ol_gd.phase_coverage",
                decide > 0 ? 100.0 * phase_sum / decide : 0.0, "%");
  result.metric("algorithms.ol_gd.lagrangian_slots",
                static_cast<double>(samples.lagrangian_slots), "count");
  result.metric("algorithms.ol_gd.fallback_slots",
                static_cast<double>(samples.fallback_slots), "count");
  result.metric("trace.decide_ms_p50", percentile(samples.decide_ms, 50), "ms");

  const std::string path = options.out_dir + "/spans_" + w.name + "_seed" +
                           std::to_string(options.seed) + ".jsonl";
  result.check("spans_written", spans.write_jsonl(path),
               std::to_string(spans.size()) + " spans to " + path);
  return result;
}

Result run_batch(const BatchWorkload& w, const RunOptions& options) {
  return options.trace ? run_traced(w, options) : run_timed(w, options);
}

}  // namespace

Result run_paper_gan(const RunOptions& options) {
  return run_batch(kPaperGan, options);
}

Result run_scale_100k(const RunOptions& options) {
  return run_batch(kScale100k, options);
}

}  // namespace perfbench
