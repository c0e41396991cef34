// Shared helpers for the bench binaries: the experiment banner, the
// BENCH_*.json report writer and the --trace/--metrics wiring.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace treesched::bench {

/// Prints the experiment banner: id, the paper claim being regenerated and
/// what shape the numbers must have to count as reproduced.
inline void banner(std::string_view id, std::string_view claim,
                   std::string_view expectation) {
  std::cout << "\n=== Experiment " << id << " ===\n"
            << "claim:       " << claim << "\n"
            << "expectation: " << expectation << "\n\n";
}

/// Machine-readable experiment report: an array of flat JSON objects,
/// written next to the human-readable table so the perf trajectory
/// (rounds, messages, retransmissions, virtual time, ...) can be tracked
/// across PRs. CI uploads every BENCH_*.json as a workflow artifact.
///
///   JsonReport report("BENCH_dist.json");
///   report.row().field("n", 16).field("rounds", stats.rounds);
///   report.write();  // also logs the path to stdout
class JsonReport {
 public:
  class Row {
   public:
    Row& field(const std::string& key, std::int64_t value) {
      return raw(key, std::to_string(value));
    }
    Row& field(const std::string& key, std::int32_t value) {
      return raw(key, std::to_string(value));
    }
    Row& field(const std::string& key, double value) {
      std::ostringstream os;
      os.precision(17);
      os << value;
      return raw(key, os.str());
    }
    Row& field(const std::string& key, bool value) {
      return raw(key, value ? "true" : "false");
    }
    Row& field(const std::string& key, const std::string& value) {
      std::string quoted = "\"";
      for (const char c : value) {
        if (c == '"' || c == '\\') quoted += '\\';
        quoted += c;
      }
      quoted += '"';
      return raw(key, quoted);
    }
    /// Embeds `rawJson` verbatim as the value — for pre-rendered JSON
    /// like MetricsRegistry::toJson() snapshots. The caller guarantees
    /// well-formedness.
    Row& jsonField(const std::string& key, const std::string& rawJson) {
      return raw(key, rawJson);
    }

   private:
    friend class JsonReport;
    Row& raw(const std::string& key, std::string rendered) {
      fields_.emplace_back(key, std::move(rendered));
      return *this;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  void write() const {
    std::ofstream out(path_);
    out << "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << "  {";
      const auto& fields = rows_[r].fields_;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        out << "\"" << fields[f].first << "\": " << fields[f].second;
        if (f + 1 < fields.size()) out << ", ";
      }
      out << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    std::cout << "wrote " << path_ << " (" << rows_.size() << " rows)\n";
  }

 private:
  std::string path_;
  std::vector<Row> rows_;
};

/// The --trace/--metrics wiring shared by every bench binary: addFlags()
/// registers the flags, the constructor opens the Chrome-trace sink when
/// --trace=FILE was given, tracer() hands the (possibly null) Tracer to
/// the run, and finish() flushes the trace file and logs its path.
///
///   CliFlags flags;
///   Telemetry::addFlags(flags);
///   ...
///   Telemetry telemetry(flags);
///   options.tracer = telemetry.tracer();
///   ...
///   telemetry.finish();
class Telemetry {
 public:
  static void addFlags(CliFlags& flags) {
    flags
        .stringFlag("trace", "",
                    "write a Chrome trace-event JSON of the run to FILE")
        .boolFlag("metrics", false,
                  "print a metrics-registry snapshot per run");
  }

  explicit Telemetry(const CliFlags& flags)
      : printMetrics_(flags.getBool("metrics")) {
    const std::string& path = flags.getString("trace");
    if (!path.empty()) {
      sink_ = std::make_unique<ChromeTraceSink>(path);
      tracer_ = Tracer(sink_.get());
    }
  }

  /// Tracer for the run, or nullptr when --trace was not given.
  Tracer* tracer() { return sink_ != nullptr ? &tracer_ : nullptr; }

  bool printMetrics() const { return printMetrics_; }

  /// Flushes the trace file (if any) and logs where it went.
  void finish() {
    if (sink_ != nullptr) {
      sink_->close();
      std::cout << "wrote " << sink_->path() << " (" << sink_->eventCount()
                << " trace events)\n";
    }
  }

 private:
  std::unique_ptr<ChromeTraceSink> sink_;
  Tracer tracer_;
  bool printMetrics_ = false;
};

}  // namespace treesched::bench
