// serve_stream: the streaming SlotService in paced mode, driven by one
// closed-loop driver thread through its public producer API.
//
// Per slot t the driver waits for open_slot() >= t (the collector folds
// events by arrival, not by slot stamp, so submitting early would land
// them in the previous slot), submits slot t's demand as several events
// per request, and calls producer_done(t). The last driven slot is
// closed by request_stop() instead, so the service serves exactly the
// driven slots. While it waits, the driver polls committed() to time
// each slot from producer_done(t) to its commit.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/assignment.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "serve/trace_io.h"

namespace perfbench {

namespace core = mecsc::core;
namespace serve = mecsc::serve;

namespace {

// The horizon the service is configured for; only kSlots of it are
// served. A long horizon is what the deployment runs with, and it makes
// construction cost and memory show the service's O(horizon) state.
constexpr std::size_t kHorizon = 100000;
constexpr std::size_t kSlots = 30;
constexpr std::size_t kInstances = 5;
constexpr std::size_t kEventsPerRequest = 4;

// The driver's wait step. Sleeping rather than spinning leaves the cores
// to the service's collector and decide threads; 100 µs is far below the
// commit latencies measured (tens of ms).
void pause() { std::this_thread::sleep_for(std::chrono::microseconds(100)); }

serve::ServeOptions serve_options(std::uint64_t seed, const std::string& trace) {
  serve::ServeOptions o;  // not serve_options_from_env(): pinned in code
  o.seed = seed;
  o.num_stations = 100;
  o.num_requests = 100;
  o.num_services = 10;
  o.horizon = kHorizon;
  o.slot_ms = 2000;  // the decide deadline, as in bench_serve
  o.producers = 0;
  o.bursty = true;
  o.paced = true;
  o.checkpoint_every = 5;
  o.trace_out = trace;
  return o;
}

// Splits d into kEventsPerRequest parts whose left-to-right sum from 0.0
// is exactly d: halving is exact, and the remainder d - s is exact by
// Sterbenz's lemma since d/2 <= s <= d.
std::vector<double> split_demand(double d) {
  std::vector<double> parts;
  double sum = 0.0;
  double part = d;
  for (std::size_t i = 0; i + 1 < kEventsPerRequest; ++i) {
    part *= 0.5;
    parts.push_back(part);
    sum += part;
  }
  parts.push_back(d - sum);
  return parts;
}

struct InstanceRun {
  double construct_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> commit_ms;
  std::vector<double> decide_ms;
  std::vector<double> open_wait_ms;
  double submit_s = 0.0;
  double loop_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t rejected = 0;  // submit() returned false
  std::size_t served = 0;
  std::size_t committed = 0;
  serve::ServeReport report;
  std::vector<std::vector<double>> driven;  // per slot, the demand driven
  std::vector<double> avg_delay_ms;         // per slot, SlotRecord
  double mean_delay_ms = 0.0;
  double decision_delay_ms = 0.0;  // Eq. 3 minus the wireless hop
};

/// Output-check failures, summed over a run's instances.
struct Tally {
  std::size_t instances = 0;
  std::size_t not_exactly_driven = 0;  // instances
  std::size_t bad_snapshot = 0;        // slots
  std::size_t bad_assignment = 0;      // slots
  std::size_t bad_delay = 0;           // slots
};

std::vector<std::uint32_t> check_outputs(const InstanceRun& run,
                                         const std::string& trace,
                                         const mecsc::sim::Scenario& scenario,
                                         Tally& tally);

InstanceRun drive(std::uint64_t seed, const std::string& trace,
                  SpanRecorder* spans, Result& result, Tally& tally) {
  InstanceRun run;
  const Clock::time_point start = Clock::now();
  serve::SlotService service(serve_options(seed, trace));
  run.construct_s = seconds_between(start, Clock::now());
  service.start();
  while (service.open_slot() < 0) std::this_thread::yield();
  run.setup_s = seconds_between(start, Clock::now());
  if (spans != nullptr) spans->add("setup", -1, -1, start, Clock::now());

  const core::CachingProblem& problem = service.scenario().problem();
  const auto& demands = service.scenario().demands();
  std::vector<Clock::time_point> done_at(kSlots);
  std::vector<bool> seen(kSlots, false);
  std::size_t next_commit = 0;
  auto poll_commits = [&] {
    const auto c = service.committed();
    if (c == nullptr) return;
    const Clock::time_point now = Clock::now();
    for (; next_commit <= c->slot && next_commit < kSlots; ++next_commit) {
      run.commit_ms.push_back(ms_between(done_at[next_commit], now));
      seen[next_commit] = true;
      if (spans != nullptr) {
        spans->add("serve.commit", static_cast<long>(next_commit), -1,
                   done_at[next_commit], now);
      }
    }
  };

  const Clock::time_point loop_start = Clock::now();
  for (std::size_t t = 0; t < kSlots; ++t) {
    const long slot = static_cast<long>(t);
    const Clock::time_point wait_start = Clock::now();
    while (service.open_slot() < static_cast<std::int64_t>(t)) {
      poll_commits();
      pause();
    }
    const Clock::time_point submit_start = Clock::now();
    run.open_wait_ms.push_back(ms_between(wait_start, submit_start));
    std::vector<double> driven(problem.num_requests(), 0.0);
    for (std::size_t l = 0; l < problem.num_requests(); ++l) {
      const double d = demands.at(l, t);
      if (d <= 0.0) continue;
      driven[l] = d;
      for (double part : split_demand(d)) {
        ++run.events;
        if (!service.submit(static_cast<std::uint32_t>(l),
                            static_cast<std::uint32_t>(t), part)) {
          ++run.rejected;
        }
      }
    }
    const Clock::time_point submit_end = Clock::now();
    run.submit_s += seconds_between(submit_start, submit_end);
    run.driven.push_back(std::move(driven));
    if (t + 1 == kSlots) {
      service.request_stop();
    } else {
      service.producer_done(t);
    }
    done_at[t] = Clock::now();
    if (spans != nullptr) {
      spans->add("serve.driver.open_wait", slot, -1, wait_start, submit_start);
      spans->add("serve.ingest.submit", slot, -1, submit_start, submit_end);
    }
    poll_commits();
  }
  while (next_commit < kSlots && service.running()) {
    poll_commits();
    pause();
  }
  run.report = service.join();
  poll_commits();
  run.loop_s = seconds_between(loop_start, Clock::now());
  for (bool s : seen) run.committed += s ? 1 : 0;
  run.served = service.slot_records().size();
  double wireless_sum = 0.0;
  for (const auto& rec : service.slot_records()) {
    run.decide_ms.push_back(rec.decision_time_ms);
    run.avg_delay_ms.push_back(rec.avg_delay_ms);
    run.mean_delay_ms += rec.avg_delay_ms;
  }
  for (const auto& d : run.driven) wireless_sum += wireless_delay_ms(problem, d);
  run.decision_delay_ms = (run.mean_delay_ms - wireless_sum) / kSlots;
  run.mean_delay_ms /= kSlots;
  const std::vector<std::uint32_t> shed =
      check_outputs(run, trace, service.scenario(), tally);
  // A slot fails when it was never committed, its decision overloads a
  // station, or any of its events was shed.
  for (std::size_t t = 0; t < kSlots; ++t) {
    ++result.attempted;
    if (!seen[t] || t >= run.served ||
        service.slot_records()[t].capacity_violation_mhz > 0.0 ||
        t >= shed.size() || shed[t] > 0) {
      ++result.failed;
    }
  }
  return run;
}

std::string trace_path(const RunOptions& options, std::size_t instance) {
  return options.out_dir + "/serve_seed" + std::to_string(options.seed) + "_" +
         std::to_string(instance) + ".trace";
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

// Checks one instance's outputs against its trace: the service served
// exactly the driven slots; each recorded snapshot is the demand driven;
// each recorded decision assigns every request once to a station in
// range with a consistent caching set; and the SlotRecord objective
// equals core::realized_average_delay of that decision (plus the shed
// penalty the service folds in). Returns the per-slot shed counts.
std::vector<std::uint32_t> check_outputs(const InstanceRun& run,
                                         const std::string& trace,
                                         const mecsc::sim::Scenario& scenario,
                                         Tally& tally) {
  ++tally.instances;
  if (run.served != kSlots || run.committed != kSlots ||
      !run.report.stopped_early) {
    ++tally.not_exactly_driven;
  }
  const core::CachingProblem& problem = scenario.problem();
  const double n = static_cast<double>(problem.num_requests());
  // serve_options() keeps the default shed penalty.
  const double shed_penalty_ms = serve::ServeOptions{}.shed_penalty_ms;
  std::vector<std::uint32_t> shed;
  serve::TraceReader reader(trace);
  serve::SlotTraceRecord rec;
  std::size_t t = 0;
  while (reader.next(rec)) {
    if (rec.slot != t || t >= run.driven.size() || t >= run.avg_delay_ms.size()) {
      break;
    }
    std::vector<double> snapshot(problem.num_requests(), 0.0);
    for (const auto& [l, d] : rec.demands) {
      if (l < snapshot.size()) snapshot[l] = d;
    }
    if (snapshot != run.driven[t]) ++tally.bad_snapshot;
    shed.push_back(rec.shed);
    core::Assignment a;
    bool in_range = rec.station_of_request.size() == problem.num_requests();
    for (std::uint16_t i : rec.station_of_request) {
      in_range = in_range && i < problem.num_stations();
      a.station_of_request.push_back(i);
    }
    if (!in_range) {
      ++tally.bad_assignment;
    } else {
      a.cached = core::derive_cached(problem, a.station_of_request);
      if (serve::pack_cached_bits(a.cached) != rec.cached_bits) {
        ++tally.bad_assignment;
      }
      double expected = core::realized_average_delay(
          problem, a, run.driven[t], scenario.simulator().unit_delays(t));
      if (rec.shed > 0) {
        expected += static_cast<double>(rec.shed) * shed_penalty_ms / n;
      }
      if (expected != run.avg_delay_ms[t] || rec.avg_delay_ms != expected) {
        ++tally.bad_delay;
      }
    }
    ++t;
  }
  tally.bad_snapshot += kSlots - t;  // records missing from the trace
  return shed;
}

}  // namespace

Result run_serve_stream(const RunOptions& options) {
  Result result;
  SpanRecorder spans;
  SpanRecorder* rec = options.trace ? &spans : nullptr;
  const std::size_t min_instances = options.trace ? 1 : kInstances;
  std::vector<double> setup_s, construct_s, commit_ms, decide_ms, open_wait_ms,
      mean_delay_ms, decision_delay_ms;
  double loop_s = 0.0, submit_s = 0.0;
  std::uint64_t events = 0, rejected = 0, retries = 0, watchdog = 0,
                trace_bytes = 0, ckpt_bytes = 0;
  Tally tally;
  // Instances run until at least `min_instances` ran and the driven
  // loops took --seconds (traced runs: one instance). The delay metrics
  // average the first `min_instances` only, so they depend on the seed
  // alone.
  for (std::size_t i = 0;
       i < min_instances || (!options.trace && loop_s < options.seconds); ++i) {
    const std::uint64_t seed = options.seed * 1000003ULL + i;
    const std::string trace = trace_path(options, i);
    InstanceRun run = drive(seed, trace, rec, result, tally);
    setup_s.push_back(run.setup_s);
    construct_s.push_back(run.construct_s);
    commit_ms.insert(commit_ms.end(), run.commit_ms.begin(), run.commit_ms.end());
    decide_ms.insert(decide_ms.end(), run.decide_ms.begin(), run.decide_ms.end());
    open_wait_ms.insert(open_wait_ms.end(), run.open_wait_ms.begin(),
                        run.open_wait_ms.end());
    if (i == 0) {
      // The instance a traced run drives, for the tracing overhead.
      result.note("first_instance_decide_ms_p50", percentile(run.decide_ms, 50),
                  "ms");
    }
    if (i < min_instances) {
      mean_delay_ms.push_back(run.mean_delay_ms);
      decision_delay_ms.push_back(run.decision_delay_ms);
    }
    loop_s += run.loop_s;
    submit_s += run.submit_s;
    events += run.events;
    rejected += run.rejected;
    retries += run.report.ingest_retries;
    watchdog += run.report.watchdog_recommits + run.report.watchdog_degraded;
    trace_bytes += file_bytes(trace);
    ckpt_bytes += file_bytes(trace + ".ckpt");
    if (i == 0) {
      const serve::ReplayResult replay = serve::replay_trace(trace);
      result.check("trace_replay", replay.sealed && replay.bit_identical &&
                                       replay.slots_compared == kSlots,
                   std::to_string(replay.slots_compared) + " slots, sealed=" +
                       (replay.sealed ? "yes" : "no") + " " + replay.detail);
    }
    std::remove(trace.c_str());
    std::remove((trace + ".ckpt").c_str());
  }
  const std::string slots = std::to_string(tally.instances * kSlots);
  result.check("served_exactly_driven", tally.not_exactly_driven == 0,
               std::to_string(tally.not_exactly_driven) + " of " +
                   std::to_string(tally.instances) + " instances differ");
  result.check("snapshots_equal_driven", tally.bad_snapshot == 0,
               std::to_string(tally.bad_snapshot) + " of " + slots +
                   " slots differ");
  result.check("assignment_valid", tally.bad_assignment == 0,
               std::to_string(tally.bad_assignment) + " invalid of " + slots +
                   " slots");
  result.check("mean_delay_recomputed", tally.bad_delay == 0,
               std::to_string(tally.bad_delay) + " of " + slots +
                   " slots differ from core::realized_average_delay");
  // Paced runs never arm the watchdog; an event here means the service
  // ran a degraded or re-commit path the workload does not describe.
  result.paths.emplace_back("watchdog", watchdog);
  if (watchdog > 0) {
    result.warnings.push_back("PATH MISMATCH: serve_stream: " +
                              std::to_string(watchdog) +
                              " watchdog events in paced mode");
  }
  result.note("mean_delay_ms", mean(mean_delay_ms), "ms");
  result.note("instances", static_cast<double>(setup_s.size()), "count");
  if (!options.trace) {
    result.metric("setup_s", median(setup_s), "s");
    result.metric("decide_ms_p50", percentile(decide_ms, 50), "ms");
    result.metric("decide_ms_p90", percentile(decide_ms, 90), "ms");
    result.metric("slots_per_s", static_cast<double>(decide_ms.size()) / loop_s,
                  "1/s");
    result.metric("commit_ms_p50", percentile(commit_ms, 50), "ms");
    result.metric("commit_ms_p90", percentile(commit_ms, 90), "ms");
    result.metric("decision_delay_ms", mean(decision_delay_ms), "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }
  result.metric("serve.service.construct_s", median(construct_s), "s");
  result.metric("serve.ingest.submit_us",
                events ? submit_s * 1e6 / static_cast<double>(events) : 0.0,
                "us");
  result.metric("serve.ingest.events", static_cast<double>(events), "count");
  result.metric("serve.ingest.retries", static_cast<double>(retries), "count");
  result.metric("serve.ingest.shed", static_cast<double>(rejected), "count");
  result.metric("serve.driver.open_wait_ms", mean(open_wait_ms), "ms");
  result.metric("serve.trace.bytes", static_cast<double>(trace_bytes), "bytes");
  result.metric("serve.checkpoint.bytes", static_cast<double>(ckpt_bytes),
                "bytes");
  result.metric("algorithms.ol_gd.decide_ms", mean(decide_ms), "ms");
  result.metric("trace.decide_ms_p50", percentile(decide_ms, 50), "ms");
  const std::string path = options.out_dir + "/spans_serve_stream_seed" +
                           std::to_string(options.seed) + ".jsonl";
  result.check("spans_written", spans.write_jsonl(path),
               std::to_string(spans.size()) + " spans to " + path);
  return result;
}

}  // namespace perfbench
