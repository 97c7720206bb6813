// One benchmark record: build facts, thread pins, metrics (a metric that
// does not apply to the workload is kept with a null value and the reason,
// never printed as 0), exact work counts, output digest, correctness checks
// and per-span totals. Emitted as a single JSON line.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"

namespace rfly::perfbench {

enum class MetricKind { kEndToEnd, kPerLayer };

struct Metric {
  std::string name;
  std::string unit;
  MetricKind kind = MetricKind::kEndToEnd;
  std::optional<double> value;
  std::string note;  // why absent, or what the value covers
};

/// Calls, total and self seconds of one benchmark span name.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Record {
 public:
  void fact(const std::string& key, const std::string& value) { facts_[key] = value; }
  void pin(const std::string& key, double value) { pins_[key] = value; }

  void metric(MetricKind kind, const std::string& name, const std::string& unit,
              double value, const std::string& note = "") {
    metrics_.push_back({name, unit, kind, value, note});
  }
  void absent(MetricKind kind, const std::string& name, const std::string& unit,
              const std::string& why) {
    metrics_.push_back({name, unit, kind, std::nullopt, why});
  }
  void work(const std::string& name, std::uint64_t value) { work_[name] = value; }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks_.push_back({name, ok, detail});
  }
  void set_digest(std::uint64_t digest) { digest_ = digest; }
  void set_jobs(std::size_t attempted, std::size_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  void set_spans(std::map<std::string, SpanTotals> spans) { spans_ = std::move(spans); }
  void info(const std::string& key, double value) { info_[key] = value; }
  void add_round(double wall_s, double cpu_s, double jobs, bool traced) {
    rounds_.push_back({wall_s, cpu_s, jobs, traced ? 1.0 : 0.0});
  }

  bool has(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return true;
    }
    return false;
  }

  bool all_checks_ok() const {
    for (const auto& c : checks_) {
      if (!c.ok) return false;
    }
    return true;
  }

  std::string to_json() const {
    std::string out = "{\"facts\":{";
    bool first = true;
    for (const auto& [k, v] : facts_) {
      out += (first ? "" : ",") + json_quote(k) + ":" + json_quote(v);
      first = false;
    }
    out += "},\"pins\":" + number_map(pins_);
    out += ",\"info\":" + number_map(info_);
    out += ",\"attempted\":" + std::to_string(attempted_);
    out += ",\"failed\":" + std::to_string(failed_);
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(digest_));
    out += ",\"digest\":" + json_quote(digest);
    out += ",\"metrics\":[";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i == 0 ? "{" : ",{");
      out += "\"name\":" + json_quote(m.name) + ",\"unit\":" + json_quote(m.unit);
      out += ",\"kind\":\"";
      out += m.kind == MetricKind::kEndToEnd ? "end_to_end" : "per_layer";
      out += "\",\"value\":" + (m.value ? json_number(*m.value) : std::string("null"));
      if (!m.note.empty()) out += ",\"note\":" + json_quote(m.note);
      out += "}";
    }
    out += "],\"work\":{";
    first = true;
    for (const auto& [k, v] : work_) {
      out += (first ? "" : ",") + json_quote(k) + ":" + std::to_string(v);
      first = false;
    }
    out += "},\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      const Check& c = checks_[i];
      out += (i == 0 ? "{" : ",{");
      out += "\"name\":" + json_quote(c.name) + ",\"ok\":" + (c.ok ? "true" : "false");
      out += ",\"detail\":" + json_quote(c.detail) + "}";
    }
    out += "],\"spans\":[";
    first = true;
    for (const auto& [name, t] : spans_) {
      out += (first ? "{" : ",{");
      out += "\"name\":" + json_quote(name) + ",\"calls\":" + std::to_string(t.calls);
      out += ",\"total_s\":" + json_number(t.total_s);
      out += ",\"self_s\":" + json_number(t.self_s) + "}";
      first = false;
    }
    out += "],\"rounds\":[";
    for (std::size_t i = 0; i < rounds_.size(); ++i) {
      const auto& r = rounds_[i];
      out += i == 0 ? "[" : ",[";
      for (std::size_t k = 0; k < r.size(); ++k) out += (k == 0 ? "" : ",") + json_number(r[k]);
      out += "]";
    }
    out += "]}";
    return out;
  }

 private:
  static std::string number_map(const std::map<std::string, double>& values) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : values) {
      out += (first ? "" : ",") + json_quote(k) + ":" + json_number(v);
      first = false;
    }
    return out + "}";
  }

  std::map<std::string, std::string> facts_;
  std::map<std::string, double> pins_;
  std::map<std::string, double> info_;
  std::vector<Metric> metrics_;
  std::map<std::string, std::uint64_t> work_;
  std::vector<Check> checks_;
  std::map<std::string, SpanTotals> spans_;
  std::vector<std::array<double, 4>> rounds_;  // wall_s, cpu_s, successful jobs, traced
  std::uint64_t digest_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace rfly::perfbench
