#pragma once

// A paper figure as data: a FigureSpec's tables, hooks and verdicts.
// run_figure() simulates every (table, load, variant) cell on the thread
// pool, prints the tables, writes the figure's JSON and trace, and prints
// one `verdict <bench>.<claim>: PASS|FAIL (<measured vs margin>)` line per
// claim; verdicts never change the exit status.

#include <cmath>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "hermes/harness/experiment.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/sim/thread_pool.hpp"

namespace hermes::bench {

/// printf into a string of at most 511 characters.
__attribute__((format(printf, 1, 2))) inline std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

/// One simulated cell: its FCT records after the warm-up filter, plus
/// what the figure's hooks read off the finished scenario.
struct Cell {
  stats::FctCollector fct;
  std::uint64_t counter = 0;  ///< FigureSpec::harvest's reading
  std::string metrics_json;   ///< registry snapshot, when the figure writes JSON
};
/// Per-cell measures, in microseconds; mean() counts unfinished flows at the cap.
inline double mean(const Cell& c) { return c.fct.overall_with_unfinished().mean_us; }
inline double small_mean(const Cell& c) { return c.fct.small_flows().mean_us; }
inline double small_p99(const Cell& c) { return c.fct.small_flows().p99_us; }
inline double large_mean(const Cell& c) { return c.fct.large_flows().mean_us; }

/// The records a table's statistics use: all but the finished flows among the
/// first `warmup` arrivals (ids 1..warmup, started into an empty fabric). An
/// unfinished flow is evidence of a failure, not a ramp-up artifact: it stays.
inline stats::FctCollector after_warmup(const stats::FctCollector& fct, int warmup) {
  stats::FctCollector out;
  for (const auto& r : fct.records())
    if (!r.finished || r.id > static_cast<std::uint64_t>(warmup)) out.add(r);
  return out;
}

/// A label plus an edit to the table's ScenarioConfig: a scheme, "probing off", ...
struct Variant {
  std::string label;
  std::function<void(harness::ScenarioConfig&)> edit;
};
/// One variant per scheme, labelled by harness::to_string.
inline std::vector<Variant> schemes(std::initializer_list<harness::Scheme> list) {
  std::vector<Variant> out;
  for (const harness::Scheme s : list)
    out.push_back({harness::to_string(s), [s](harness::ScenarioConfig& c) { c.scheme = s; }});
  return out;
}

struct Row;
struct Column {
  std::string header;
  std::function<std::string(const Row&)> cell;
};

/// One printed table: every load x variant cell on one fabric and
/// workload, all seeded 1, so every variant sees identical flows.
struct Table {
  std::string intro{};  ///< printed verbatim before the table
  harness::ScenarioConfig base{};
  workload::SizeDist dist;
  int flows = 0;
  int warmup = 0;  ///< see after_warmup()
  std::vector<double> loads{};
  std::vector<Variant> variants{};
  std::vector<Column> columns{};
  bool per_variant_rows = false;  ///< one row per variant, not one per load
  bool blank_after = true;        ///< an empty line after the table
};

/// The cells of one load of one table, one per variant. A table with
/// per-variant rows prints one row per cell and sets `self`.
struct Row {
  const Table* table = nullptr;
  double load = 0;
  std::span<const Cell> cells;
  std::size_t self = 0;

  [[nodiscard]] const Cell* find(std::string_view label) const {
    for (std::size_t i = 0; i < cells.size(); ++i)
      if (table->variants[i].label == label) return &cells[i];
    return nullptr;
  }
  [[nodiscard]] const Cell& at(std::string_view label) const {
    if (const Cell* c = find(label)) return *c;
    throw std::out_of_range("no variant '" + std::string(label) + "' in this table");
  }
  [[nodiscard]] const Cell& me() const { return cells[self]; }
};

inline Column load_column() {
  return {"load", [](const Row& r) { return stats::Table::num(r.load, 1); }};
}
/// `first`, then one mean-FCT column per variant (headed by its label), then `extra`.
inline std::vector<Column> wide_columns(Column first, const std::vector<Variant>& variants,
                                        std::vector<Column> extra = {}) {
  std::vector<Column> out{std::move(first)};
  for (const Variant& v : variants)
    out.push_back(
        {v.label, [l = v.label](const Row& r) { return stats::Table::usec(mean(r.at(l))); }});
  for (Column& c : extra) out.push_back(std::move(c));
  return out;
}
inline Column label_column(std::string header) {
  return {std::move(header), [](const Row& r) { return r.table->variants[r.self].label; }};
}
inline Column usec_column(std::string header, double (*measure)(const Cell&)) {
  return {std::move(header),
          [measure](const Row& r) { return stats::Table::usec(measure(r.me())); }};
}
/// `measure` of the row's cell over that of variant `ref` (0 when that is 0).
inline Column ratio_column(std::string header, double (*measure)(const Cell&), std::string ref) {
  return {std::move(header), [measure, ref = std::move(ref)](const Row& r) {
            const double base = measure(r.at(ref));
            return stats::Table::num(base > 0 ? measure(r.me()) / base : 0, 2);
          }};
}
/// How much lower the mean of `subject` (default: the row's cell) is than
/// that of `base`, in percent of `base`; `sign` -1 says how much higher.
inline Column gain_column(std::string header, std::string base, std::string subject = {},
                          double sign = 1) {
  return {std::move(header), [=](const Row& r) {
            const double b = mean(r.at(base)), s = mean(subject.empty() ? r.me() : r.at(subject));
            return stats::Table::pct(sign * (b - s) / b + 0.0);  // + 0.0: no "-0.0%"
          }};
}

/// A paper claim: on every (table, load) row where `value` is defined
/// (not NaN), it must be at most `bound` — or at least, if `at_least`.
struct Verdict {
  std::string claim;
  std::string what;  ///< what `value` measures, with its unit
  bool at_least;
  double bound;
  std::function<double(const Row&)> value;
};

struct FigureSpec {
  std::string name;  ///< the bench binary: JSON "bench" field, verdict prefix
  std::string title;
  std::string claim;
  std::vector<Table> tables{};
  std::function<void(harness::Scenario&)> install{};           ///< before traffic starts
  std::function<std::uint64_t(harness::Scenario&)> harvest{};  ///< after the run: Cell::counter
  /// Default --json=<path> for every cell's metrics snapshot; empty: no JSON.
  std::string json{};
  /// Default --trace=<path> for the flight-recorder dump of the last cell
  /// (the highest load) that enables obs; empty: no trace.
  std::string trace{};
  std::vector<Verdict> verdicts{};
};

/// Runs and prints `spec`; returns main()'s exit status (nonzero only
/// when an output file cannot be written).
inline int run_figure(const FigureSpec& spec, int argc, char** argv) {
  print_header(spec.title.c_str(), spec.claim.c_str());

  struct CellSpec {
    const Table* table;
    double load;
    const Variant* variant;
    harness::ScenarioConfig cfg;
  };
  std::vector<CellSpec> specs;
  for (const Table& t : spec.tables)
    for (const double load : t.loads)
      for (const Variant& v : t.variants) {
        specs.push_back({&t, load, &v, t.base});
        if (v.edit) v.edit(specs.back().cfg);
      }
  std::size_t traced = specs.size();
  for (std::size_t i = 0; !spec.trace.empty() && i < specs.size(); ++i)
    if (specs[i].cfg.obs.enabled) traced = i;
  const std::string trace_path = flag(argc, argv, "--trace=", spec.trace);
  bool trace_written = false;

  // Every cell owns its Scenario, so cells run concurrently; results are
  // index-addressed, so the output is that of a serial run.
  const std::vector<Cell> cells = sim::ThreadPool{}.map<Cell>(specs.size(), [&](std::size_t i) {
    const CellSpec& c = specs[i];
    const Table& t = *c.table;
    Cell cell;
    auto finish = [&](harness::Scenario& s) {
      if (spec.harvest) cell.counter = spec.harvest(s);
      if (!spec.json.empty()) cell.metrics_json = s.metrics().snapshot_json();
      if (i == traced) trace_written = s.dump_trace(trace_path);
    };
    cell.fct = after_warmup(
        harness::run_workload_experiment(c.cfg, t.dist, c.load, t.flows, 1, spec.install, finish),
        t.warmup);
    return cell;
  });

  std::vector<Row> rows;  // one per (table, load), in cell order
  for (std::size_t i = 0; i < specs.size(); i += specs[i].table->variants.size())
    rows.push_back({specs[i].table, specs[i].load,
                    std::span<const Cell>(cells).subspan(i, specs[i].table->variants.size())});
  for (std::size_t r = 0; r < rows.size();) {
    const Table& t = *rows[r].table;
    std::vector<std::string> headers;
    for (const Column& col : t.columns) headers.push_back(col.header);
    stats::Table out(headers);
    for (; r < rows.size() && rows[r].table == &t; ++r)
      for (Row row = rows[r]; row.self < (t.per_variant_rows ? row.cells.size() : 1); ++row.self) {
        std::vector<std::string> line;
        for (const Column& col : t.columns) line.push_back(col.cell(row));
        out.add_row(line);
      }
    std::printf("%s", t.intro.c_str());
    out.print();
    if (t.blank_after) std::printf("\n");
  }

  int status = 0;
  auto wrote = [&](bool ok, const std::string& path, std::string what) {
    if (ok) std::printf("wrote %s%s\n", path.c_str(), what.c_str());
    else std::fprintf(stderr, "cannot write %s\n", path.c_str()), status = 1;
  };
  if (traced < specs.size())
    wrote(trace_written, trace_path, strf(" (load %.1f)", specs[traced].load));
  if (!spec.json.empty()) {
    const std::string path = flag(argc, argv, "--json=", spec.json);
    std::string json = "{\n  \"bench\": \"" + spec.name + "\",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i)
      json += strf("%s    {\"scheme\": \"%s\", \"load\": %.2f, \"metrics\": ", i > 0 ? ",\n" : "",
                   specs[i].variant->label.c_str(), specs[i].load) + cells[i].metrics_json + "}";
    wrote(stats::write_file(path, json + "\n  ]\n}\n"), path, "");
  }

  for (const Verdict& v : spec.verdicts) {
    const Row* worst = nullptr;
    double w = NAN;
    for (const Row& r : rows)
      if (const double x = v.value(r); !std::isnan(x) && (!worst || (v.at_least ? x < w : x > w)))
        worst = &r, w = x;
    const bool pass = worst != nullptr && (v.at_least ? w >= v.bound : w <= v.bound);
    std::printf("verdict %s.%s: %s (%s: worst %.3g at %s load %.1f; %s %.3g)\n",
                spec.name.c_str(), v.claim.c_str(), pass ? "PASS" : "FAIL", v.what.c_str(), w,
                worst ? worst->table->dist.name().c_str() : "no", worst ? worst->load : 0,
                v.at_least ? "at least" : "at most", v.bound);
  }
  return status;
}

}  // namespace hermes::bench
