#include "serve/checkpoint.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.h"

namespace mecsc::serve {

namespace {

using wire::Cursor;
using wire::fnv1a;
using wire::put;
using wire::put_bytes;

constexpr std::uint32_t kCheckpointMagic = 0x4B43454DU;  // "MECK"
// v2: appended the Lagrangian dual warm state (λ + step scale) after the
// flow-solver warm state — required for bit-identical resume under
// MECSC_SOLVER=lagrangian/auto.
// v3: dropped the flow solver's station prices — the network simplex
// warm-starts from the warm arcs alone.
constexpr std::uint16_t kCheckpointVersion = 3;

void put_doubles(std::string& buf, const std::vector<double>& v) {
  put(buf, static_cast<std::uint64_t>(v.size()));
  put_bytes(buf, v.data(), v.size() * sizeof(double));
}

bool take_doubles(Cursor& c, std::vector<double>& v) {
  std::uint64_t n = 0;
  if (!c.take(n) || n > c.remaining() / sizeof(double)) return false;
  v.resize(static_cast<std::size_t>(n));
  return c.take(v.data(), v.size() * sizeof(double));
}

void put_u64s(std::string& buf, const std::vector<std::uint64_t>& v) {
  put(buf, static_cast<std::uint64_t>(v.size()));
  put_bytes(buf, v.data(), v.size() * sizeof(std::uint64_t));
}

bool take_u64s(Cursor& c, std::vector<std::uint64_t>& v) {
  std::uint64_t n = 0;
  if (!c.take(n) || n > c.remaining() / sizeof(std::uint64_t)) return false;
  v.resize(static_cast<std::size_t>(n));
  return c.take(v.data(), v.size() * sizeof(std::uint64_t));
}

void put_string(std::string& buf, const std::string& s) {
  put(buf, static_cast<std::uint64_t>(s.size()));
  buf += s;
}

bool take_string(Cursor& c, std::string& s) {
  std::uint64_t n = 0;
  if (!c.take(n) || n > c.remaining()) return false;
  s.resize(static_cast<std::size_t>(n));
  return c.take(s.data(), s.size());
}

// vector<vector<bool>> with uniform inner size (the caching sets):
// rows, cols, then one byte per entry. Checkpoints are small and
// infrequent, so plain bytes beat bit-packing cleverness here.
void put_bool_matrix(std::string& buf,
                     const std::vector<std::vector<bool>>& m) {
  const std::uint64_t rows = m.size();
  const std::uint64_t cols = rows == 0 ? 0 : m.front().size();
  put(buf, rows);
  put(buf, cols);
  for (const auto& row : m) {
    for (bool b : row) put(buf, static_cast<std::uint8_t>(b ? 1 : 0));
  }
}

bool take_bool_matrix(Cursor& c, std::vector<std::vector<bool>>& m) {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  if (!c.take(rows) || !c.take(cols)) return false;
  if (rows != 0 && cols > c.remaining() / rows) return false;
  m.assign(static_cast<std::size_t>(rows),
           std::vector<bool>(static_cast<std::size_t>(cols), false));
  for (auto& row : m) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::uint8_t b = 0;
      if (!c.take(b)) return false;
      row[i] = b != 0;
    }
  }
  return true;
}

std::string serialize_checkpoint(const Checkpoint& ckpt) {
  std::string buf;
  buf += serialize_trace_config(ckpt.config);
  put(buf, ckpt.slot);
  put(buf, ckpt.trace_records);
  put(buf, ckpt.trace_offset);
  put(buf, ckpt.ingested);
  put(buf, ckpt.shed);
  put(buf, ckpt.ingest_retries);
  put(buf, ckpt.ingest_gave_up);

  const algorithms::OlGdState& a = ckpt.algo;
  put_doubles(buf, a.bandit_theta);
  put(buf, static_cast<std::uint64_t>(a.bandit_plays.size()));
  for (std::size_t p : a.bandit_plays) {
    put(buf, static_cast<std::uint64_t>(p));
  }
  put(buf, static_cast<std::uint64_t>(a.bandit_total_plays));
  put_string(buf, a.rng_stream);
  put(buf, static_cast<std::uint8_t>(a.lp_warm.valid ? 1 : 0));
  put(buf, a.lp_warm.rows);
  put(buf, a.lp_warm.cols);
  put_u64s(buf, a.lp_warm.basis);
  put(buf, static_cast<std::uint64_t>(a.solver_warm.warm_arcs.size()));
  for (const auto& arcs : a.solver_warm.warm_arcs) {
    put(buf, static_cast<std::uint64_t>(arcs.size()));
    put_bytes(buf, arcs.data(), arcs.size() * sizeof(std::uint32_t));
  }
  put_doubles(buf, a.lag_warm.lambda);
  put(buf, a.lag_warm.step_scale);

  const sim::SlotEngineState& e = ckpt.engine;
  put(buf, static_cast<std::uint8_t>(e.has_decision ? 1 : 0));
  put(buf, static_cast<std::uint64_t>(e.decision.station_of_request.size()));
  for (std::size_t s : e.decision.station_of_request) {
    put(buf, static_cast<std::uint64_t>(s));
  }
  put_bool_matrix(buf, e.decision.cached);
  put_bool_matrix(buf, e.prev_cached);
  return buf;
}

bool parse_checkpoint(Cursor& c, Checkpoint& ckpt) {
  if (!parse_trace_config(c, ckpt.config)) return false;
  if (!(c.take(ckpt.slot) && c.take(ckpt.trace_records) &&
        c.take(ckpt.trace_offset) && c.take(ckpt.ingested) &&
        c.take(ckpt.shed) && c.take(ckpt.ingest_retries) &&
        c.take(ckpt.ingest_gave_up))) {
    return false;
  }

  algorithms::OlGdState& a = ckpt.algo;
  if (!take_doubles(c, a.bandit_theta)) return false;
  std::uint64_t n = 0;
  if (!c.take(n) || n > c.remaining() / sizeof(std::uint64_t)) return false;
  a.bandit_plays.resize(static_cast<std::size_t>(n));
  for (auto& p : a.bandit_plays) {
    std::uint64_t v = 0;
    if (!c.take(v)) return false;
    p = static_cast<std::size_t>(v);
  }
  std::uint64_t total = 0;
  if (!c.take(total)) return false;
  a.bandit_total_plays = static_cast<std::size_t>(total);
  if (!take_string(c, a.rng_stream)) return false;
  std::uint8_t valid = 0;
  if (!(c.take(valid) && c.take(a.lp_warm.rows) && c.take(a.lp_warm.cols))) {
    return false;
  }
  a.lp_warm.valid = valid != 0;
  if (!take_u64s(c, a.lp_warm.basis)) return false;
  if (!c.take(n) || n > c.remaining() / sizeof(std::uint64_t)) return false;
  a.solver_warm.warm_arcs.resize(static_cast<std::size_t>(n));
  for (auto& arcs : a.solver_warm.warm_arcs) {
    std::uint64_t m = 0;
    if (!c.take(m) || m > c.remaining() / sizeof(std::uint32_t)) return false;
    arcs.resize(static_cast<std::size_t>(m));
    if (!c.take(arcs.data(), arcs.size() * sizeof(std::uint32_t))) return false;
  }
  if (!take_doubles(c, a.lag_warm.lambda)) return false;
  if (!c.take(a.lag_warm.step_scale)) return false;

  sim::SlotEngineState& e = ckpt.engine;
  std::uint8_t has = 0;
  if (!c.take(has)) return false;
  e.has_decision = has != 0;
  if (!c.take(n) || n > c.remaining() / sizeof(std::uint64_t)) return false;
  e.decision.station_of_request.resize(static_cast<std::size_t>(n));
  for (auto& s : e.decision.station_of_request) {
    std::uint64_t v = 0;
    if (!c.take(v)) return false;
    s = static_cast<std::size_t>(v);
  }
  if (!take_bool_matrix(c, e.decision.cached)) return false;
  if (!take_bool_matrix(c, e.prev_cached)) return false;
  return c.remaining() == 0;
}

}  // namespace

void write_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  const std::string payload = serialize_checkpoint(ckpt);
  std::string buf;
  put(buf, kCheckpointMagic);
  put(buf, kCheckpointVersion);
  put(buf, static_cast<std::uint64_t>(payload.size()));
  buf += payload;
  put(buf, fnv1a(payload.data(), payload.size()));

  // Crash consistency: write the sibling tmp file, force it to stable
  // storage, then atomically rename over the previous checkpoint. Either
  // the old or the new file survives a crash at any instant.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  MECSC_CHECK_MSG(f != nullptr, "cannot open checkpoint tmp file: " + tmp);
  const bool wrote = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size() &&
                     std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  MECSC_CHECK_MSG(wrote, "checkpoint write failed: " + tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  MECSC_CHECK_MSG(!ec, "checkpoint rename failed: " + path);
}

Checkpoint read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MECSC_CHECK_MSG(in.good(), "cannot open checkpoint file: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  Cursor c(bytes.data(), bytes.size());
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint64_t size = 0;
  MECSC_CHECK_MSG(c.take(magic) && magic == kCheckpointMagic,
                  "not a mecsc checkpoint: " + path);
  MECSC_CHECK_MSG(c.take(version) && version == kCheckpointVersion,
                  "unsupported checkpoint version");
  MECSC_CHECK_MSG(c.take(size) && size == c.remaining() - sizeof(std::uint64_t),
                  "torn checkpoint: " + path);
  const char* payload = bytes.data() + (bytes.size() - c.remaining());
  Cursor body(payload, static_cast<std::size_t>(size));
  std::uint64_t checksum = 0;
  Cursor tail(payload + size, sizeof(std::uint64_t));
  MECSC_CHECK_MSG(tail.take(checksum) &&
                      fnv1a(payload, static_cast<std::size_t>(size)) == checksum,
                  "checkpoint checksum mismatch: " + path);
  Checkpoint ckpt;
  MECSC_CHECK_MSG(parse_checkpoint(body, ckpt),
                  "corrupt checkpoint body: " + path);
  return ckpt;
}

}  // namespace mecsc::serve
