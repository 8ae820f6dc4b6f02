#include "hermes/stats/csv.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace hermes::stats {

namespace {
void append_row(std::string& out, const transport::FlowRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%llu,%llu,%.3f,%.3f,%d,%u,%u,%llu,%llu,%u\n",
                static_cast<unsigned long long>(r.id),
                static_cast<unsigned long long>(r.size), r.start.to_usec(),
                r.fct().to_usec(), r.finished ? 1 : 0, r.timeouts, r.fast_retransmits,
                static_cast<unsigned long long>(r.packets_sent),
                static_cast<unsigned long long>(r.packets_retransmitted), r.reroutes);
  out += buf;
}
}  // namespace

std::string to_csv(const FctCollector& fct) {
  std::string out =
      "id,size_bytes,start_us,fct_us,finished,timeouts,fast_retx,pkts_sent,pkts_retx,"
      "reroutes\n";
  for (const auto& r : fct.records()) append_row(out, r);
  return out;
}

std::string summary_csv_header() { return "label,count,mean_us,p50_us,p95_us,p99_us,max_us\n"; }

std::string summary_csv_row(const std::string& label, const FctSummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s,%zu,%.3f,%.3f,%.3f,%.3f,%.3f\n", label.c_str(), s.count,
                s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.max_us);
  return buf;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return n == content.size();
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace hermes::stats
