// mecsc_perfbench: one workload of the repository benchmark per process.
//
//   mecsc_perfbench --workload paper_gan|scale_100k|serve_stream
//                   [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// Prints human-readable lines, then one line
//   PERFBENCH_RESULT {"workload":..., "correct":..., "metrics":{...}, ...}
// that perfbench/run.py turns into the benchmark's result line. Exit
// code 0 when the run completed (its checks may still have failed; the
// result says so), 2 on bad usage or a refused environment.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "bench/bench_util.h"
#include "common.h"
#include "obs/telemetry.h"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Result::count_path(const std::string& key) {
  for (auto& [name, n] : paths) {
    if (name == key) {
      ++n;
      return;
    }
  }
  paths.emplace_back(key, 1);
}

bool Result::correct() const {
  for (const Check& c : checks) {
    if (!c.ok) return false;
  }
  return !checks.empty();
}

int SpanRecorder::open(const char* name, long slot, int parent) {
  const double now = us_since_origin(Clock::now());
  spans_.push_back({name, slot, parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = us_since_origin(Clock::now());
}

int SpanRecorder::add(const char* name, long slot, int parent,
                      Clock::time_point start, Clock::time_point end) {
  spans_.push_back(
      {name, slot, parent, us_since_origin(start), us_since_origin(end)});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"slot\":%ld,\"parent\":%d,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, s.name, s.slot, s.parent, s.start_us, s.end_us);
    out << line;
  }
  out.flush();
  return out.good();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

namespace {

using perfbench::Result;
using perfbench::RunOptions;

// Variables that change which code path the benchmark measures. The
// benchmark pins these choices in code; a set variable would either be
// ignored (and mislead whoever set it) or silently change the path.
bool changes_measured_path(std::string_view name) {
  constexpr std::string_view kRefused[] = {
      "MECSC_SIMD",   "MECSC_PREDICT_BATCH", "MECSC_FAULTS",
      "MECSC_SOLVER", "MECSC_AGGREGATE",     "MECSC_WORKERS"};
  return name.starts_with("MECSC_LAG_") ||
         std::find(std::begin(kRefused), std::end(kRefused), name) !=
             std::end(kRefused);
}

bool refused_environment() {
  bool refused = false;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry = *e;
    const std::string_view name = entry.substr(0, entry.find('='));
    if (changes_measured_path(name)) {
      std::cerr << "perfbench: refusing to run with " << name
                << " set; it changes the measured path\n";
      refused = true;
    }
  }
  return refused;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const RunOptions& options, const Result& r) {
  std::cout << "== " << options.workload << " seed=" << options.seed
            << (options.trace ? " (traced)" : " (timed)") << " ==\n";
  for (const auto& m : r.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  for (const auto& m : r.info) {
    std::cout << "  (info) " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  for (const auto& [path, n] : r.paths) {
    std::cout << "  path " << path << ": " << n << " slots\n";
  }
  for (const auto& c : r.checks) {
    std::cout << "  check " << c.name << ": " << (c.ok ? "ok" : "FAILED")
              << (c.detail.empty() ? "" : " (" + c.detail + ")") << "\n";
  }
  for (const auto& w : r.warnings) {
    std::cout << "  !!! " << w << "\n";
  }
  std::cout << "  failed " << r.failed << " of " << r.attempted
            << " attempted slots (failed_frac = "
            << json_number(r.attempted ? static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted)
                                       : 0.0)
            << ")\n";

  std::ostringstream j;
  j << "PERFBENCH_RESULT {\"workload\": " << json_string(options.workload)
    << ", \"seed\": " << options.seed << ", \"trace\": " << options.trace
    << ", \"correct\": " << (r.correct() ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    j << (i ? ", " : "") << json_string(r.metrics[i].name)
      << ": {\"value\": " << json_number(r.metrics[i].value)
      << ", \"unit\": " << json_string(r.metrics[i].unit) << "}";
  }
  j << "}, \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    j << (i ? ", " : "") << json_string(r.info[i].name)
      << ": {\"value\": " << json_number(r.info[i].value)
      << ", \"unit\": " << json_string(r.info[i].unit) << "}";
  }
  j << "}, \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    j << (i ? ", " : "") << "{\"name\": " << json_string(r.checks[i].name)
      << ", \"ok\": " << (r.checks[i].ok ? "true" : "false")
      << ", \"detail\": " << json_string(r.checks[i].detail) << "}";
  }
  j << "], \"paths\": {";
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    j << (i ? ", " : "") << json_string(r.paths[i].first) << ": "
      << r.paths[i].second;
  }
  j << "}, \"warnings\": [";
  for (std::size_t i = 0; i < r.warnings.size(); ++i) {
    j << (i ? ", " : "") << json_string(r.warnings[i]);
  }
  j << "], \"meta\": {" << mecsc::bench::json_meta() << "}}";
  std::cout << j.str() << std::endl;
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: mecsc_perfbench --workload "
               "paper_gan|scale_100k|serve_stream [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (refused_environment()) return 2;
  // The telemetry level is part of the measured path: off for timed
  // runs, summary for traced runs (the mcf.* / lag.* / agg.* counters).
  mecsc::obs::set_level(options.trace ? mecsc::obs::Level::kSummary
                                      : mecsc::obs::Level::kOff);

  Result result;
  try {
    if (options.workload == "paper_gan") {
      result = perfbench::run_paper_gan(options);
    } else if (options.workload == "scale_100k") {
      result = perfbench::run_scale_100k(options);
    } else if (options.workload == "serve_stream") {
      result = perfbench::run_serve_stream(options);
    } else {
      usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  print_result(options, result);
  return 0;
}
