#ifndef MECSC_SERVE_TRACE_IO_H
#define MECSC_SERVE_TRACE_IO_H

// Compact binary trace format of the mecsc::serve subsystem (DESIGN.md
// "Streaming service architecture" and "Crash tolerance & recovery").
//
// A trace records everything a live run fed its decision pipeline — the
// per-slot demand snapshots the slot scheduler closed, the realised
// per-station unit delays, and the per-slot decisions the pipeline
// committed — plus the compact scenario configuration needed to rebuild
// the identical problem instance. Replaying the recorded snapshots
// through the batch simulator (serve::replay_trace) therefore
// reproduces the daemon's decisions bit-for-bit, which is the
// determinism contract production-shaped traces lean on when reused as
// benches.
//
// Layout (little-endian, doubles as raw IEEE-754 bytes):
//   header  "MECT" magic, format version, TraceConfig fields
//   records "SLOT"-tagged slot records, each followed by an FNV-1a-64
//           checksum of the record's payload bytes
//   footer  "TEND" magic + total record count (written by close(); a
//           trace without it was cut off mid-write)
//
// Format v2 adds per-record decision-mode flags (watchdog recommits and
// degraded hints are wall-clock-timing events; recording them is what
// keeps replay deterministic) and an optional realised-fault block
// (station-up bits, censored-feedback mask, effective capacities) so
// traces recorded under MECSC_FAULTS=churn replay bit-for-bit without
// the fault plan.
//
// Format v3 adds the env-resolved solver tier (MECSC_SOLVER) to the
// TraceConfig: the tier is part of the decision recipe — the Lagrangian
// and flow tiers produce different (equally valid) fractional optima —
// so replay must pin it exactly like the aggregation mode.
//
// Every multi-byte count in a record is validated against the bytes
// actually remaining before any allocation, so a torn or bit-flipped
// trace yields a typed error (common::InvalidArgument) or a truncation
// status — never unbounded allocation or UB. The salvage entry points
// (TraceReader::next_status, inspect_trace) never throw on a damaged
// tail; they report the last checksum-valid prefix instead.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

namespace mecsc::serve {

namespace wire {

/// FNV-1a-64 — the checksum of trace records and checkpoint payloads.
inline std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fixed-width little-endian serialisation into a growable byte buffer.
/// The repo only targets little-endian hosts (x86-64/AArch64), so the
/// raw-memcpy encoding doubles as the canonical on-disk byte order.
inline void put_bytes(std::string& buf, const void* p, std::size_t n) {
  buf.append(static_cast<const char*>(p), n);
}
template <typename T>
inline void put(std::string& buf, T v) {
  put_bytes(buf, &v, sizeof(v));
}

/// Bounds-checked sequential reader over a byte span. take() fails
/// (returns false) instead of reading past the end, and remaining()
/// lets parsers validate element counts before any resize.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : data_(data), size_(size) {}
  bool take(void* out, std::size_t n) {
    if (n > size_ - pos_) return false;
    if (n == 0) return true;  // empty vectors may hand in a null `out`
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  template <typename T>
  bool take(T& out) {
    return take(&out, sizeof(T));
  }
  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace wire

/// Scenario + pipeline configuration stamped into a trace header: the
/// complete recipe for rebuilding the daemon's problem instance and
/// algorithm, so a replay needs nothing but the trace file.
struct TraceConfig {
  std::uint64_t seed = 1;          ///< Scenario root seed.
  std::uint32_t num_stations = 0;  ///< Requested base stations.
  std::uint32_t num_requests = 0;  ///< Requested request population.
  std::uint32_t num_services = 0;  ///< Requested service catalogue size.
  std::uint32_t horizon = 0;       ///< Planned run slots.
  std::uint32_t slot_ms = 0;       ///< Wall-clock slot length (ms).
  std::uint8_t bursty = 1;         ///< Bursty workload flag.
  std::uint8_t aggregate = 1;      ///< core::AggregateMode (env-resolved).
  std::uint8_t faults = 0;         ///< fault::FaultMode (env-resolved).
  std::uint8_t solver = 1;         ///< core::SolverTier (env-resolved; v3).
  std::uint64_t algo_seed = 0;     ///< Seed of the pipeline's algorithm.
  double shed_penalty_ms = 250.0;  ///< Per-shed-request delay penalty.
};

/// Canonical byte encoding of a TraceConfig — shared by the trace
/// header, the checkpoint file, and recipe-equality checks (two configs
/// are the same recipe iff their serialisations are byte-identical,
/// which makes the double field memcmp-exact).
std::string serialize_trace_config(const TraceConfig& config);

/// Inverse of serialize_trace_config. Returns false on short input.
bool parse_trace_config(wire::Cursor& cursor, TraceConfig& out);

/// Byte-exact recipe equality (see serialize_trace_config).
bool same_trace_config(const TraceConfig& a, const TraceConfig& b);

/// Per-record decision-mode flags (SlotTraceRecord::flags).
inline constexpr std::uint32_t kSlotFlagRecommit = 1U << 0;
inline constexpr std::uint32_t kSlotFlagDegradedHint = 1U << 1;
inline constexpr std::uint32_t kSlotFlagFaults = 1U << 2;

/// One recorded slot: the canonical demand snapshot (sparse, nonzero
/// entries only), the realised unit delays, the committed decision, and
/// the slot's serve-side accounting.
struct SlotTraceRecord {
  std::uint32_t slot = 0;
  /// Nonzero snapshot entries as (request id, demand) pairs, ascending
  /// by request id.
  std::vector<std::pair<std::uint32_t, double>> demands;
  /// Realised d_i(t) per station.
  std::vector<double> unit_delays;
  /// Committed decision: serving station per request (u16 — the format
  /// caps a trace at 65535 stations).
  std::vector<std::uint16_t> station_of_request;
  /// Caching set, service-major packed bits: bit (k * stations + i) set
  /// iff service k is cached at station i.
  std::vector<std::uint8_t> cached_bits;
  std::uint32_t ingested = 0;      ///< Events folded into the snapshot.
  std::uint32_t shed = 0;          ///< Events shed by admission control.
  /// Serve-side shed penalty only (pre-averaging); the fault subsystem's
  /// shed penalty lives in fault_shed_penalty_ms below so replay can
  /// fold each side exactly once.
  double shed_penalty_ms = 0.0;
  double avg_delay_ms = 0.0;       ///< Realised slot objective.
  double decide_ms = 0.0;          ///< decide() wall-clock (informational).
  /// Decision-mode flags (kSlotFlag*): how this slot was decided.
  /// kSlotFlagRecommit — the watchdog re-committed the previous slot's
  /// placement (decide skipped); kSlotFlagDegradedHint — decide was
  /// hinted straight to the degraded solver; kSlotFlagFaults — the
  /// realised-fault block below is present.
  std::uint32_t flags = 0;
  /// Realised fault state (present iff flags & kSlotFlagFaults): one
  /// byte per station for the up/censored masks, the effective (derated)
  /// capacities the decision was made under, and the fault-side shed
  /// accounting. Together with the snapshot this is everything replay
  /// needs to reproduce the engine's fault arithmetic without the plan.
  std::vector<std::uint8_t> station_up;
  std::vector<std::uint8_t> feedback_lost;
  std::vector<double> effective_capacity_mhz;
  double outage_penalty_factor = 1.0;
  std::uint32_t fault_shed_requests = 0;
  double fault_shed_penalty_ms = 0.0;
};

/// Streaming writer. Records append with per-record checksums; close()
/// (or destruction) seals the trace with the footer.
class TraceWriter {
 public:
  /// Opens `path` for writing and emits the header (throws
  /// common::InvalidArgument when the file cannot be opened).
  TraceWriter(const std::string& path, const TraceConfig& config);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Reopens an existing trace for appending after a crash: truncates
  /// `path` to `resume_offset` bytes (discarding any torn tail past the
  /// last checkpointed record) and continues appending with the record
  /// counter at `keep_records`. The offsets come from a checkpoint;
  /// inspect_trace() recovers them from the file itself. Throws
  /// common::InvalidArgument when the file is missing or shorter than
  /// the requested offset.
  static std::unique_ptr<TraceWriter> resume(const std::string& path,
                                             std::size_t keep_records,
                                             std::uint64_t resume_offset);

  /// Appends one slot record (serialised + checksummed).
  void append(const SlotTraceRecord& record);

  /// Flushes buffered records to disk (the footer is not yet written).
  void flush();

  /// Writes the footer and closes the file. Idempotent.
  void close();

  /// Records appended so far.
  std::size_t records_written() const noexcept { return records_; }

  /// File length in bytes through the last append (header + records,
  /// no footer) — the resume offset a checkpoint stores.
  std::uint64_t byte_offset() const noexcept { return bytes_; }

 private:
  struct ResumeTag {};
  TraceWriter(ResumeTag, const std::string& path, std::size_t keep_records,
              std::uint64_t resume_offset);

  std::ofstream out_;
  std::size_t records_ = 0;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

/// Why TraceReader::next_status stopped (or did not).
enum class RecordStatus {
  kRecord,     ///< A record was read and checksum-verified.
  kFooter,     ///< The footer was reached (sealed trace).
  kTruncated,  ///< The file ends mid-record (writer died; no footer).
  kCorrupt,    ///< Bad marker, checksum mismatch, or malformed body.
};

/// Sequential reader over a recorded trace.
class TraceReader {
 public:
  /// Opens `path` and parses the header (throws common::InvalidArgument
  /// on a missing file, bad magic, or unsupported version).
  explicit TraceReader(const std::string& path);

  /// The header's configuration.
  const TraceConfig& config() const noexcept { return config_; }

  /// Reads the next slot record. Returns false at the footer or at a
  /// truncated tail; a corrupt record (checksum mismatch) throws
  /// common::InvalidArgument.
  bool next(SlotTraceRecord& out);

  /// Non-throwing form of next() for salvage paths: reads the next
  /// record and reports damage as a status instead of throwing. On
  /// kCorrupt/kTruncated, `error` (when non-null) receives a
  /// human-readable reason and the reader stops (subsequent calls
  /// return the same status).
  RecordStatus next_status(SlotTraceRecord& out, std::string* error = nullptr);

  /// True once the footer was consumed — distinguishes a sealed trace
  /// from one whose writer died mid-stream.
  bool saw_footer() const noexcept { return saw_footer_; }

  /// Records read so far.
  std::size_t records_read() const noexcept { return records_; }

  /// Byte offset just past the last checksum-valid record (the header
  /// when none) — the salvage truncation point.
  std::uint64_t last_good_offset() const noexcept { return good_offset_; }

  /// Total file size in bytes.
  std::uint64_t file_bytes() const noexcept { return file_bytes_; }

 private:
  std::ifstream in_;
  TraceConfig config_;
  std::size_t records_ = 0;
  bool saw_footer_ = false;
  bool stopped_ = false;
  std::uint64_t good_offset_ = 0;
  std::uint64_t file_bytes_ = 0;
};

/// One record's location in the file, as reported by inspect_trace.
struct TraceRecordInfo {
  std::uint32_t slot = 0;          ///< Recorded slot index.
  std::uint32_t flags = 0;         ///< Decision-mode flags.
  std::uint64_t offset = 0;        ///< File offset of the "SLOT" marker.
  std::uint64_t payload_bytes = 0; ///< Serialised payload size.
  std::uint64_t checksum = 0;      ///< FNV-1a-64 of the payload.
};

/// Everything mecsc_trace and the resume path need to know about a
/// trace without replaying it.
struct TraceInspection {
  TraceConfig config;
  std::uint16_t version = 0;
  bool sealed = false;               ///< Footer present and count matches.
  std::uint64_t file_bytes = 0;
  /// Length of the checksum-valid prefix (header + intact records) —
  /// where salvage truncates.
  std::uint64_t salvage_offset = 0;
  std::size_t salvage_records = 0;   ///< Records in that prefix.
  /// Why reading stopped before the footer ("" for a sealed trace).
  std::string tail_error;
  std::vector<TraceRecordInfo> records;
};

/// Scans `path` record by record: header recipe, per-record offsets and
/// checksums, seal status, and the salvage point. Never throws on a
/// damaged tail (only on an unreadable file / bad header, like
/// TraceReader's constructor).
TraceInspection inspect_trace(const std::string& path);

/// Full-file integrity check: header parses, every record's checksum
/// holds, and the footer is present with a matching record count. When
/// `slots_out` is non-null it receives the record count.
bool trace_well_formed(const std::string& path, std::size_t* slots_out = nullptr);

/// Packs a caching set cached[k][i] into the trace's service-major bit
/// layout (bit k * stations + i). Used by the recorder and by the replay
/// comparison, so both sides share one canonical encoding.
std::vector<std::uint8_t> pack_cached_bits(
    const std::vector<std::vector<bool>>& cached);

}  // namespace mecsc::serve

#endif  // MECSC_SERVE_TRACE_IO_H
