#include "hermes/obs/trace_io.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hermes::obs {

namespace {

// Trace format schema v1:
//   char[4]  magic "HTRC"
//   u32      version (1)
//   u32      record_size (64)
//   u32      name_count
//   u64      record_count
//   u64      overwritten
//   name_count × { u32 len; char[len] }   (ids 1..name_count in order)
//   record_count × TraceRecord            (raw little-endian structs)
//
// Older builds wrote version 2: the same file with a flow-index footer
// after the records. The reader accepts both and ignores whatever follows
// the records; it builds the flow index in memory for every file, so
// `hermestrace --flow/--diff` and any other per-flow query stay O(log n).
constexpr char kMagic[4] = {'H', 'T', 'R', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kNewestReadable = 2;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};

bool put_u32(std::FILE* f, std::uint32_t v) { return std::fwrite(&v, sizeof v, 1, f) == 1; }
bool put_u64(std::FILE* f, std::uint64_t v) { return std::fwrite(&v, sizeof v, 1, f) == 1; }
bool get_u32(std::FILE* f, std::uint32_t& v) { return std::fread(&v, sizeof v, 1, f) == 1; }
bool get_u64(std::FILE* f, std::uint64_t& v) { return std::fread(&v, sizeof v, 1, f) == 1; }

bool fail(std::string* err, const char* why) {
  if (err != nullptr) *err = why;
  return false;
}

/// Bytes from the current position to end-of-file (0 on any seek error).
std::uint64_t bytes_remaining(std::FILE* f) {
  const long here = std::ftell(f);
  if (here < 0 || std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long end = std::ftell(f);
  std::fseek(f, here, SEEK_SET);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

}  // namespace

const std::string& LoadedTrace::name(std::uint32_t id) const {
  static const std::string kUnknown = "?";
  if (id == 0 || id > names.size()) return kUnknown;
  return names[id - 1];
}

std::span<const std::uint32_t> LoadedTrace::flow_records(std::uint64_t flow_id) const {
  const auto it = std::lower_bound(
      flow_ranges.begin(), flow_ranges.end(), flow_id,
      [](const FlowRange& r, std::uint64_t id) { return r.flow_id < id; });
  if (it == flow_ranges.end() || it->flow_id != flow_id) return {};
  return std::span<const std::uint32_t>{flow_perm}.subspan(it->begin, it->count);
}

std::vector<std::uint64_t> LoadedTrace::flow_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(flow_ranges.size());
  for (const FlowRange& r : flow_ranges) ids.push_back(r.flow_id);
  return ids;
}

namespace {

/// Build the flow index of a record stream: `perm` becomes the record
/// indices stably grouped by flow id (chronological within each flow),
/// `ranges` the ascending per-flow slices.
void build_flow_index(const std::vector<TraceRecord>& records,
                      std::vector<LoadedTrace::FlowRange>& ranges,
                      std::vector<std::uint32_t>& perm) {
  ranges.clear();
  perm.resize(records.size());
  std::iota(perm.begin(), perm.end(), 0u);
  // Stable: records are in append (chronological) order, so within each
  // flow the permutation stays time-ordered.
  std::stable_sort(perm.begin(), perm.end(), [&records](std::uint32_t a, std::uint32_t b) {
    return records[a].flow_id < records[b].flow_id;
  });
  for (std::size_t i = 0; i < perm.size();) {
    const std::uint64_t flow = records[perm[i]].flow_id;
    std::size_t j = i;
    while (j < perm.size() && records[perm[j]].flow_id == flow) ++j;
    ranges.push_back({flow, i, j - i});
    i = j;
  }
}

bool write_records(const std::string& path, const StringTable& names,
                   const std::vector<TraceRecord>& records, std::uint64_t overwritten) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  std::FILE* fp = f.get();

  const std::uint32_t name_count = names.size();

  if (std::fwrite(kMagic, 1, 4, fp) != 4) return false;
  if (!put_u32(fp, kVersion) || !put_u32(fp, sizeof(TraceRecord)) || !put_u32(fp, name_count) ||
      !put_u64(fp, records.size()) || !put_u64(fp, overwritten)) {
    return false;
  }
  for (std::uint32_t id = 1; id <= name_count; ++id) {
    const std::string& s = names.name(id);
    if (!put_u32(fp, static_cast<std::uint32_t>(s.size()))) return false;
    if (!s.empty() && std::fwrite(s.data(), 1, s.size(), fp) != s.size()) return false;
  }
  if (!records.empty() &&
      std::fwrite(records.data(), sizeof(TraceRecord), records.size(), fp) != records.size()) {
    return false;
  }
  return std::fflush(fp) == 0;
}

}  // namespace

bool write_trace(const std::string& path, const FlightRecorder& rec) {
  return write_records(path, rec.names(), rec.snapshot(), rec.overwritten());
}

bool write_merged_trace(const std::string& path,
                        const std::vector<const FlightRecorder*>& shards) {
  if (shards.empty()) return false;
  std::vector<TraceRecord> records;
  std::uint64_t overwritten = 0;
  std::size_t total = 0;
  for (const FlightRecorder* rec : shards) {
    // One shared table is what makes concatenation meaningful: the same
    // name id must resolve identically in every shard's records.
    if (&rec->names() != &shards.front()->names()) return false;
    total += rec->size();
  }
  records.reserve(total);
  for (const FlightRecorder* rec : shards) {
    const std::vector<TraceRecord> snap = rec->snapshot();
    records.insert(records.end(), snap.begin(), snap.end());
    overwritten += rec->overwritten();
  }
  // (time, shard) is the merged trace's canonical order: within a shard
  // records are already chronological (stable sort keeps that), and
  // cross-shard ties break on the shard id stamped in pad[0] — both
  // independent of thread count, so merged traces are byte-comparable.
  std::stable_sort(records.begin(), records.end(), [](const TraceRecord& a, const TraceRecord& b) {
    if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
    return a.pad[0] < b.pad[0];
  });
  return write_records(path, shards.front()->names(), records, overwritten);
}

bool read_trace(const std::string& path, LoadedTrace& out, std::string* err) {
  out = LoadedTrace{};
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (!f) return fail(err, "cannot open file");
  std::FILE* fp = f.get();

  char magic[4];
  if (std::fread(magic, 1, 4, fp) != 4 || std::memcmp(magic, kMagic, 4) != 0) {
    return fail(err, "not a hermes trace (bad magic)");
  }
  std::uint32_t version = 0;
  std::uint32_t record_size = 0;
  std::uint32_t name_count = 0;
  std::uint64_t record_count = 0;
  if (!get_u32(fp, version) || !get_u32(fp, record_size) || !get_u32(fp, name_count) ||
      !get_u64(fp, record_count) || !get_u64(fp, out.overwritten)) {
    return fail(err, "truncated header");
  }
  if (version < kVersion || version > kNewestReadable) {
    return fail(err, "unsupported trace version");
  }
  if (record_size != sizeof(TraceRecord)) return fail(err, "record size mismatch");

  // Sanity-check declared counts against the actual file size before
  // resizing anything: a corrupt header must produce a clean error, not
  // a multi-gigabyte allocation followed by partial output.
  const std::uint64_t remaining = bytes_remaining(fp);
  if (name_count > remaining / sizeof(std::uint32_t) ||
      record_count > remaining / sizeof(TraceRecord)) {
    return fail(err, "declared sizes exceed file size (corrupt header)");
  }

  out.names.reserve(name_count);
  for (std::uint32_t i = 0; i < name_count; ++i) {
    std::uint32_t len = 0;
    if (!get_u32(fp, len) || len > (1u << 20)) return fail(err, "truncated string table");
    std::string s(len, '\0');
    if (len != 0 && std::fread(s.data(), 1, len, fp) != len) {
      return fail(err, "truncated string table");
    }
    out.names.push_back(std::move(s));
  }
  out.records.resize(record_count);
  if (record_count != 0 &&
      std::fread(out.records.data(), sizeof(TraceRecord), record_count, fp) != record_count) {
    out = LoadedTrace{};
    return fail(err, "truncated record section (short record tail)");
  }

  build_flow_index(out.records, out.flow_ranges, out.flow_perm);
  return true;
}

}  // namespace hermes::obs
