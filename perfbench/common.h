#ifndef MECSC_PERFBENCH_COMMON_H
#define MECSC_PERFBENCH_COMMON_H

// Shared plumbing of the benchmark driver: run options, sample
// statistics, the result record every workload fills in, and the
// in-memory span recorder of traced runs.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Milliseconds between two steady-clock points.
inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Command-line options of one benchmark process.
struct RunOptions {
  std::string workload;
  /// Root of every generated input. The default is recorded so a claim
  /// can be re-checked on a held-out seed.
  std::uint64_t seed = 1;
  /// Least wall-clock time the slot loops of a timed run take.
  double seconds = 6.0;
  /// 0: timed run (end-to-end metrics, telemetry off).
  /// 1: traced run (per-layer metrics, shadow replay, spans).
  bool trace = false;
  /// Directory for the run's files (serve trace and checkpoint, spans).
  std::string out_dir = ".";
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Nearest-rank percentile `p` in (0, 100] of `v` (0 when empty).
double percentile(std::vector<double> v, double p);

/// Arithmetic mean of `v` (0 when empty).
double mean(const std::vector<double>& v);

/// Everything one workload process reports.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };

  std::vector<Metric> metrics;
  /// Facts printed for people but not part of the result's metrics.
  std::vector<Metric> info;
  std::vector<Check> checks;
  /// Slots the run attempted and how many of them failed (see README).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Realised-path tallies, e.g. "tier=flow depth=0" -> slots.
  std::vector<std::pair<std::string, std::uint64_t>> paths;
  /// Loud lines: the workload ran a different path than its label says.
  std::vector<std::string> warnings;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void count_path(const std::string& key);
  bool correct() const;
};

/// Spans of a traced run, kept in memory and written once at exit.
/// Each span has a name, start and end (µs since the recorder was
/// made), the index of its parent span (-1 for a root) and a slot id.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span and returns its index.
  int open(const char* name, long slot, int parent = -1);
  /// Closes span `id` now.
  void close(int id);
  /// Records an already-measured interval.
  int add(const char* name, long slot, int parent, Clock::time_point start,
          Clock::time_point end);
  /// Writes one JSON object per span. Returns false on an I/O error.
  bool write_jsonl(const std::string& path) const;
  std::size_t size() const noexcept { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    long slot;
    int parent;
    double start_us;
    double end_us;
  };
  double us_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Mean per-request wireless transmission delay of a slot (ms): the
/// ρ_l·tx_unit_l term of Eq. 3. It depends only on each user's demand
/// and home cell, so no caching decision changes it.
inline double wireless_delay_ms(const mecsc::core::CachingProblem& problem,
                                const std::vector<double>& demands) {
  double sum = 0.0;
  for (std::size_t l = 0; l < demands.size(); ++l) {
    sum += problem.transmission_delay_ms(l, demands[l]);
  }
  return demands.empty() ? 0.0 : sum / static_cast<double>(demands.size());
}

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Workload entry points (batch.cpp, serve.cpp).
Result run_paper_gan(const RunOptions& options);
Result run_scale_100k(const RunOptions& options);
Result run_serve_stream(const RunOptions& options);

}  // namespace perfbench

#endif  // MECSC_PERFBENCH_COMMON_H
