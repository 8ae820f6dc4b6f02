#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/records.hpp"

namespace hermes::obs {

/// A trace file read back into memory: the raw records plus the string
/// table needed to resolve their name ids, plus the flow index that
/// makes per-flow queries O(log n) on large traces.
struct LoadedTrace {
  /// One flow's slice of the index: `count` entries of `flow_perm`
  /// starting at `begin` are the record indices of `flow_id`, in
  /// chronological (append) order.
  struct FlowRange {
    std::uint64_t flow_id = 0;
    std::uint64_t begin = 0;
    std::uint64_t count = 0;
  };

  std::vector<TraceRecord> records;
  std::vector<std::string> names;  ///< index = id - 1, as written
  std::uint64_t overwritten = 0;   ///< records lost to ring wrap before dump

  /// Ranges in ascending flow-id order (binary-searchable), built in
  /// memory at load whatever the file's schema version.
  std::vector<FlowRange> flow_ranges;
  /// Record indices grouped by flow (see FlowRange).
  std::vector<std::uint32_t> flow_perm;

  /// Resolve a name id ("?" for 0 / out of range), mirroring
  /// StringTable::name so renderers never branch on corrupt input.
  [[nodiscard]] const std::string& name(std::uint32_t id) const;

  /// Record indices of one flow in chronological order (empty when the
  /// flow is absent). Binary search over flow_ranges: O(log n).
  [[nodiscard]] std::span<const std::uint32_t> flow_records(std::uint64_t flow_id) const;

  /// All flow ids present, ascending.
  [[nodiscard]] std::vector<std::uint64_t> flow_ids() const;
};

/// Dump the recorder's held records and string table to `path` in trace
/// format schema v1 (little-endian, 64-byte records). Returns false on
/// I/O failure.
bool write_trace(const std::string& path, const FlightRecorder& rec);

/// Merge per-shard recorders into one schema-v1 trace: snapshots are
/// concatenated and stably sorted by (time_ns, shard id). All recorders
/// must share one StringTable (the sharded harness constructs them that
/// way); returns false otherwise, on an empty recorder list, or on I/O
/// failure.
bool write_merged_trace(const std::string& path, const std::vector<const FlightRecorder*>& shards);

/// Load a trace file: schema v1, or v2 as older builds wrote it, whose
/// flow-index footer after the records is ignored. Returns false (and
/// leaves `out` empty) on I/O failure, bad magic, version/record-size
/// mismatch, or a truncated/corrupt body — partial input never yields
/// partial output; `err` (when non-null) receives a one-line reason.
bool read_trace(const std::string& path, LoadedTrace& out, std::string* err = nullptr);

}  // namespace hermes::obs
