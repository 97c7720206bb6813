// Shared helpers for the figure-reproduction benches: CLI argument parsing
// (every bench understands the same --seed/--trials/--threads/--out flags
// instead of hand-rolling argv handling) and output formatting — aligned
// columns plus a PAPER-vs-OURS line so EXPERIMENTS.md can be filled straight
// from the run logs, and an optional JSON metrics file for machine readers.
#pragma once

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/status.h"
#include "localize/sar_kernel.h"
#include "sim/batch.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfly::bench {

/// Checked numeric parsing for CLI values: the whole token must be a number
/// that fits T — base-10 for integers, standard decimal/scientific notation
/// for floating-point T. Replaces atoi/strtoull/atof, which silently read
/// garbage as 0 ("--trials 1O0" ran one hundred-ish trials as zero) and
/// ignore trailing junk ("0.1x" is a parse error here, not 0.1). Negative
/// input to an unsigned T fails (from_chars rejects the sign) instead of
/// wrapping; "nan"/"inf" fail the finiteness check — no CLI knob here means
/// a non-finite value.
template <typename T>
Status parse_cli_number(const std::string& flag, const char* text, T& out) {
  const char* end = text + std::string_view(text).size();
  T value{};
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    result = std::from_chars(text, end, value);
  } else {
    result = std::from_chars(text, end, value, 10);
  }
  if (result.ec == std::errc::result_out_of_range) {
    return {StatusCode::kParseError,
            flag + " value '" + text + "' is out of range"};
  }
  constexpr const char* kind =
      std::is_floating_point_v<T> ? " wants a number, got '"
                                  : " wants an integer, got '";
  if (result.ec != std::errc() || result.ptr != end || text == end) {
    return {StatusCode::kParseError, flag + kind + text + "'"};
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return {StatusCode::kParseError, flag + kind + text + "'"};
    }
  }
  out = value;
  return Status::ok();
}

/// Common bench options. Construct with the bench's defaults, then
/// parse(argc, argv) to apply overrides. Unknown flags abort with usage —
/// better than a sweep silently running the default.
struct CliOptions {
  std::uint64_t seed = 1;
  int trials = 0;       // bench-specific meaning (trials, per-point runs, ...)
  unsigned threads = 0; // 0 = hardware concurrency
  std::string out;      // JSON metrics path; empty = stdout only
  std::string scenario; // scenario file (scenario_runner)
  bool report = false;  // print the span tree + metric table after the run
  std::string trace_out; // Chrome trace-event JSON path; empty = none
  /// SAR search strategy (--search exact|incremental|coarse2fine).
  /// scenario_runner applies it over the scenario's own `localize.search`
  /// only when passed (`search_explicit`). Benches default to the legacy
  /// exact sweep so existing runs stay comparable.
  localize::SarSearch search = localize::SarSearch::kExact;
  bool search_explicit = false;
  /// Batch execution mode (--batch batched|per-mission): whether repeated
  /// missions share the measurement plane / geometry cache / arena, or each
  /// job runs its pipeline independently. Results are bit-identical either
  /// way; the knob exists to measure the difference and to pin parity.
  sim::BatchMode batch_mode = sim::BatchMode::kBatched;
  /// Retention bound of the trajectory, grid and forward-plane caches
  /// (--cache-capacity N); 0 disables retention so every plane group
  /// rebuilds its buffers cold.
  std::size_t cache_capacity = sim::BatchConfig{}.cache_capacity;
  /// `--set key=value` overrides, in order (scenario_runner).
  std::vector<std::pair<std::string, std::string>> overrides;

  /// Returns false (after printing the parse error and usage to stderr) on
  /// a malformed command line; the bench should exit non-zero.
  bool parse(int argc, char** argv) {
    auto value_of = [&](int& i) -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    auto fail = [&](const Status& status) {
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      usage(argv[0]);
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const char* value = nullptr;
      if (arg == "--seed" && (value = value_of(i))) {
        if (Status s = parse_cli_number(arg, value, seed); !s.is_ok()) {
          return fail(s);
        }
      } else if (arg == "--trials" && (value = value_of(i))) {
        if (Status s = parse_cli_number(arg, value, trials); !s.is_ok()) {
          return fail(s);
        }
      } else if (arg == "--threads" && (value = value_of(i))) {
        if (Status s = parse_cli_number(arg, value, threads); !s.is_ok()) {
          return fail(s);
        }
      } else if (arg == "--out" && (value = value_of(i))) {
        out = value;
      } else if (arg == "--scenario" && (value = value_of(i))) {
        scenario = value;
      } else if (arg == "--kernel") {
        return fail({StatusCode::kParseError,
                     "--kernel was removed: every run uses the SIMD SAR and "
                     "forward-synthesis kernels"});
      } else if (arg == "--search" && (value = value_of(i))) {
        if (!localize::parse_sar_search(value, search)) {
          return fail({StatusCode::kParseError,
                       "--search wants exact|incremental|coarse2fine, got '" +
                           std::string(value) + "'"});
        }
        search_explicit = true;
      } else if (arg == "--batch" && (value = value_of(i))) {
        if (!sim::parse_batch_mode(value, batch_mode)) {
          return fail({StatusCode::kParseError,
                       "--batch wants batched|per-mission, got '" +
                           std::string(value) + "'"});
        }
      } else if (arg == "--cache-capacity" && (value = value_of(i))) {
        if (Status s = parse_cli_number(arg, value, cache_capacity); !s.is_ok()) {
          return fail(s);
        }
      } else if (arg == "--report") {
        report = true;
      } else if (arg == "--trace-out" && (value = value_of(i))) {
        trace_out = value;
      } else if (arg == "--set" && (value = value_of(i))) {
        const std::string pair = value;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          return fail({StatusCode::kParseError,
                       "--set wants key=value, got '" + pair + "'"});
        }
        overrides.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
      } else {
        return fail({StatusCode::kParseError, "unknown argument '" + arg + "'"});
      }
    }
    return true;
  }

  static void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--trials N] [--threads N] "
                 "[--search exact|incremental|coarse2fine] "
                 "[--batch batched|per-mission] [--cache-capacity N] "
                 "[--out FILE] "
                 "[--scenario FILE] [--set key=value]... [--report] "
                 "[--trace-out FILE]\n",
                 argv0);
  }
};

/// Flat JSON metrics accumulator: add(name, value) pairs, then write() to
/// the --out path ({"median_cm": 19.3, ...}). add_json() attaches an
/// already-rendered JSON value (e.g. the obs snapshot) under a key; raw
/// entries print after the numeric ones. No-op when the path is empty.
class Metrics {
 public:
  void add(const std::string& name, double value) {
    entries_.emplace_back(name, value);
  }
  /// `json` must be a complete JSON value; it is emitted verbatim.
  void add_json(const std::string& name, std::string json) {
    raw_entries_.emplace_back(name, std::move(json));
  }
  /// Typed variant: kIoError names the path and the errno cause when the
  /// file cannot be opened or the write comes up short. Empty path = no-op.
  Status write_checked(const std::string& path) const {
    if (path.empty()) return Status::ok();
    FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      return {StatusCode::kIoError, "cannot write metrics to '" + path +
                                        "': " + std::strerror(errno)};
    }
    // Keys go through json_escape (a scenario-derived name may hold quotes
    // or control bytes) and values through json_number (NaN/Inf -> null);
    // raw %s/%.17g here used to emit documents no strict parser accepted.
    std::fprintf(file, "{");
    bool first = true;
    for (const auto& [name, value] : entries_) {
      std::fprintf(file, "%s%s: %s", first ? "" : ", ",
                   json_quote(name).c_str(), json_number(value).c_str());
      first = false;
    }
    for (const auto& [name, json] : raw_entries_) {
      std::fprintf(file, "%s%s: %s", first ? "" : ", ",
                   json_quote(name).c_str(), json.c_str());
      first = false;
    }
    std::fprintf(file, "}\n");
    const bool wrote = std::ferror(file) == 0;
    const bool closed = std::fclose(file) == 0;
    if (!wrote || !closed) {
      return {StatusCode::kIoError, "short write to '" + path + "'"};
    }
    return Status::ok();
  }

  bool write(const std::string& path) const {
    const Status status = write_checked(path);
    if (!status.is_ok()) {
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
    }
    return status.is_ok();
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
  std::vector<std::pair<std::string, std::string>> raw_entries_;
};

/// Shared tail for every bench: drain the trace and snapshot the metrics
/// once, fold the snapshot into `metrics` under a "metrics" key (so the
/// --out JSON carries it), then honor --report and --trace-out. Call after
/// the workload, before Metrics::write(). Returns false when --trace-out
/// could not be written.
inline bool finish_observability(const CliOptions& options, Metrics& metrics) {
  const obs::MetricsSnapshot snapshot = obs::snapshot();
  const obs::Trace trace = obs::drain_trace();
  metrics.add_json("metrics", obs::metrics_to_json(snapshot));
  if (options.report) obs::print_report(stdout, trace, snapshot);
  if (!options.trace_out.empty()) {
    std::string error;
    if (!obs::write_trace_file(options.trace_out, trace, &error)) {
      const Status status{StatusCode::kIoError, error};
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      return false;
    }
  }
  return true;
}

inline void header(const std::string& figure, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

/// Print an empirical CDF as (value, fraction) rows, subsampled to ~20 rows.
inline void print_cdf(const std::string& label, std::span<const double> values,
                      const std::string& unit) {
  const auto cdf = empirical_cdf(values);
  std::printf("CDF of %s (%zu trials):\n  %12s  fraction\n", label.c_str(),
              values.size(), unit.c_str());
  const std::size_t step = cdf.size() > 20 ? cdf.size() / 20 : 1;
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    std::printf("  %12.3f  %8.2f\n", cdf[i].value, cdf[i].fraction);
  }
  if (!cdf.empty()) {
    std::printf("  %12.3f  %8.2f\n", cdf.back().value, cdf.back().fraction);
  }
}

inline void summary_line(const std::string& label, std::span<const double> values,
                         const std::string& unit) {
  const Summary s = summarize(values);
  std::printf("%-28s median %8.3f %s   p10 %8.3f   p90 %8.3f   p99 %8.3f\n",
              label.c_str(), s.p50, unit.c_str(), s.p10, s.p90, s.p99);
}

inline void paper_vs_ours(const std::string& metric, const std::string& paper,
                          double ours, const std::string& unit) {
  std::printf("PAPER vs OURS | %-38s paper: %-14s ours: %.3g %s\n", metric.c_str(),
              paper.c_str(), ours, unit.c_str());
}

}  // namespace rfly::bench
