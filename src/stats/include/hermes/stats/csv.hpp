#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hermes/stats/fct.hpp"

namespace hermes::stats {

/// CSV rendering of flow records and summaries, for piping experiment
/// output into plotting tools.
///
/// Columns of the per-flow table:
///   id,size_bytes,start_us,fct_us,finished,timeouts,fast_retx,
///   pkts_sent,pkts_retx,reroutes
[[nodiscard]] std::string to_csv(const FctCollector& fct);

/// One summary row: label,count,mean_us,p50_us,p95_us,p99_us,max_us
[[nodiscard]] std::string summary_csv_header();
[[nodiscard]] std::string summary_csv_row(const std::string& label, const FctSummary& s);

/// Write `content` to `path`; returns false on I/O failure.
bool write_file(const std::string& path, const std::string& content);

/// 64-bit FNV-1a of rendered output (CSV, metrics snapshots, decision
/// logs): the fingerprint the golden-hash determinism checks pin.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

}  // namespace hermes::stats
