// Shared helpers for the table/figure regeneration benches.
//
// Each bench binary regenerates one table or figure from the paper on a
// downscaled problem: the absolute numbers differ from the paper's
// Titan-scale runs (documented in EXPERIMENTS.md), but the structure —
// who wins, what is imbalanced, where the crossovers sit — is measured,
// not modeled, unless a column explicitly says "projected".
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/workflows.h"
#include "dpp/thread_pool.h"
#include "obs/obs.h"
#include "stats/catalog.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/table.h"

// The build type the bench was compiled with (set by bench/CMakeLists.txt).
#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

using cosmo::TextTable;

namespace bench_common {

/// Observability flags shared by every bench binary:
///   --trace-out=<file>   export the run's spans as Chrome trace-event JSON
///                        (open in chrome://tracing or ui.perfetto.dev)
///   --metrics            print the span summary + metrics registry on exit
/// Construct one at the top of main(); export happens on destruction so the
/// whole run is covered.
struct ObsSession {
  std::filesystem::path trace_out;
  bool print_metrics = false;

  ObsSession(int argc, char** argv) {
    const std::string trace_flag = "--trace-out=";
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind(trace_flag, 0) == 0)
        trace_out = a.substr(trace_flag.size());
      else if (a == "--metrics")
        print_metrics = true;
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    if (print_metrics) {
      std::cout << "\nspan summary:\n";
      cosmo::obs::Tracer::instance().print_summary(std::cout);
      std::cout << "\nmetrics:\n";
      cosmo::obs::MetricsRegistry::instance().print(std::cout);
    }
    if (!trace_out.empty()) {
      if (cosmo::obs::Tracer::instance().export_chrome_trace_file(trace_out))
        std::cout << "\ntrace written to " << trace_out.string() << "\n";
      else
        std::cerr << "\nfailed to write trace to " << trace_out.string()
                  << "\n";
    }
  }
};

/// The downscaled analysis problem used by the Table 3/4 benches: a stand-in
/// for the paper's 1024³/32-node test run. One rare, large halo dominates
/// center-finding cost, as in the paper (largest halo 2,548,321 particles).
inline cosmo::core::WorkflowProblem table34_problem(const std::string& tag) {
  cosmo::core::WorkflowProblem p;
  p.universe.box = 48.0;
  p.universe.seed = 20151115;  // SC'15 started Nov 15, 2015
  p.universe.halo_count = 60;
  p.universe.min_particles = 60;
  p.universe.max_particles = 26000;  // the "monster": ~18x the median halo
  p.universe.background_particles = 12000;
  p.universe.subclump_fraction = 0.0;
  p.ranks = 8;          // stands in for the paper's 32 Titan nodes
  p.analysis_ranks = 2; // stands in for the paper's 4-node analysis job
  p.ranks_per_file = 4;
  p.linking_length = 0.32;
  p.min_halo_size = 40;
  p.overload = 3.0;
  p.threshold = 1200;   // stands in for the paper's 300,000 split
  p.compute_so_mass = true;
  p.compute_subhalos = false;
  p.workdir = std::filesystem::temp_directory_path() /
              ("cosmoflow_bench_" + tag + "_" + std::to_string(::getpid()));
  return p;
}

/// Core-hour charge for a phase on the modeled Titan partition:
/// nodes × hours × 30 (the paper's charging policy).
inline double titan_core_hours(int nodes, double seconds) {
  return nodes * (seconds / 3600.0) * 30.0;
}

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("\n=== %s ===\n(reproduces %s; downscaled, shapes comparable, "
              "absolute numbers machine-local)\n\n",
              what, paper_ref);
}

// ---- Scenario runner ------------------------------------------------------
//
// The ablation and table benches compare scenarios (serial vs pooled,
// standalone vs co-scheduled, five workflow variants) that must produce the
// same output. The runner owns what they share: the repeat loop, the
// median/min/max statistics, the bit-identity gate and the JSON schema.

/// Sum of a span's durations so far, across all threads.
inline double span_total(const char* name) {
  for (const auto& st : cosmo::obs::Tracer::instance().summary())
    if (st.name == name) return st.total_s;
  return 0.0;
}

/// Total of a counter so far; 0 if it was never registered.
inline double counter_total(const char* name) {
  auto& reg = cosmo::obs::MetricsRegistry::instance();
  return reg.has_counter(name) ? static_cast<double>(reg.counter(name).total())
                               : 0.0;
}

/// Short unoptimizable per-item loop: keeps the pool busy without
/// saturating memory bandwidth.
inline double item_work(std::size_t i) {
  double acc = 0.0;
  for (int k = 1; k <= 12; ++k)
    acc += std::sqrt(static_cast<double>(i % 1024 + static_cast<std::size_t>(k)));
  return acc;
}

/// The co-scheduled in-situ job: `count` threads issuing item_work
/// parallel_for loops on the process-wide pool until destruction.
class AnalysisDrivers {
 public:
  explicit AnalysisDrivers(int count) {
    for (int d = 0; d < count; ++d)
      threads_.emplace_back([this] {
        std::vector<double> out(1 << 14);
        while (!stop_.load(std::memory_order_relaxed)) {
          cosmo::dpp::ThreadPool::instance().parallel_for(
              out.size(), [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) out[i] = item_work(i);
              });
          sink_.store(out[out.size() / 2], std::memory_order_relaxed);
        }
      });
  }
  AnalysisDrivers(const AnalysisDrivers&) = delete;
  AnalysisDrivers& operator=(const AnalysisDrivers&) = delete;
  ~AnalysisDrivers() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> sink_{0.0};  // keeps the drivers' output observable
  std::vector<std::thread> threads_;
};

/// CRC32 of a catalog in canonical (id) order, over the raw record bytes.
inline std::uint32_t catalog_crc(cosmo::stats::HaloCatalog catalog) {
  cosmo::stats::sort_catalog(catalog);
  const auto bytes = cosmo::stats::catalog_to_bytes(catalog);
  return cosmo::crc32(bytes.data(), bytes.size());
}

inline std::string crc_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

struct Stats {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Stats summarize(std::vector<double> xs) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const double median =
      n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  return {median, xs.front(), xs.back()};
}

/// What one repeat of a scenario measured.
struct Sample {
  double seconds = 0.0;   // wall time of the measured work
  std::uint32_t crc = 0;  // CRC32 of the repeat's output
  std::vector<std::pair<std::string, double>> fields;  // extra numbers
};

struct Scenario {
  std::string name;
  std::vector<Sample> repeats;

  Stats seconds() const {
    std::vector<double> xs;
    for (const auto& r : repeats) xs.push_back(r.seconds);
    return summarize(std::move(xs));
  }
  Stats field(const std::string& key) const {
    std::vector<double> xs;
    for (const auto& r : repeats)
      for (const auto& [k, v] : r.fields)
        if (k == key) xs.push_back(v);
    return summarize(std::move(xs));
  }
};

/// Runs every scenario of one bench a fixed number of times and gates the
/// outputs: every repeat of every scenario must produce the same CRC.
class Runner {
 public:
  Runner(std::string bench, int reps) : bench_(std::move(bench)), reps_(reps) {
    COSMO_REQUIRE(reps >= 1, "a scenario needs at least one repeat");
  }

  /// Calls `repeat(rep)` for rep = 0..reps-1 and records each sample.
  Scenario run(std::string name, const std::function<Sample(int)>& repeat) {
    Scenario s{std::move(name), {}};
    for (int r = 0; r < reps_; ++r) s.repeats.push_back(repeat(r));
    scenarios_.push_back(s);
    return s;
  }

  /// The reference CRC: the first repeat of the first scenario.
  std::uint32_t crc() const {
    return scenarios_.empty() ? 0 : scenarios_.front().repeats.front().crc;
  }

  /// The first "scenario repeat N" whose CRC differs from crc(), or "".
  std::string first_mismatch() const {
    for (const auto& s : scenarios_)
      for (std::size_t r = 0; r < s.repeats.size(); ++r)
        if (s.repeats[r].crc != crc())
          return s.name + " repeat " + std::to_string(r);
    return "";
  }

  bool identical() const { return first_mismatch().empty(); }

  void write_json(std::ostream& j) const {
    const auto stats = [&](const Stats& st) {
      j << "{\"median\": " << st.median << ", \"min\": " << st.min
        << ", \"max\": " << st.max << "}";
    };
    j.precision(10);
    j << "{\n  \"bench\": \"" << bench_ << "\",\n"
      << "  \"host_threads\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"pool_workers\": " << cosmo::dpp::ThreadPool::instance().workers()
      << ",\n  \"build_type\": \"" << BENCH_BUILD_TYPE << "\",\n"
      << "  \"reps\": " << reps_ << ",\n"
      << "  \"output_crc32\": \"" << crc_hex(crc()) << "\",\n"
      << "  \"output_identical\": " << (identical() ? "true" : "false")
      << ",\n  \"scenarios\": [";
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const auto& s = scenarios_[i];
      j << (i ? "," : "") << "\n    {\"scenario\": \"" << s.name
        << "\", \"seconds\": ";
      stats(s.seconds());
      for (const auto& [key, _] : s.repeats.front().fields) {
        j << ", \"" << key << "\": ";
        stats(s.field(key));
      }
      j << ",\n     \"repeats\": [";
      for (std::size_t r = 0; r < s.repeats.size(); ++r) {
        const auto& rep = s.repeats[r];
        j << (r ? ", " : "") << "{\"seconds\": " << rep.seconds
          << ", \"crc32\": \"" << crc_hex(rep.crc) << "\"";
        for (const auto& [key, v] : rep.fields) j << ", \"" << key << "\": " << v;
        j << "}";
      }
      j << "]}";
    }
    j << "\n  ]\n}\n";
  }

  /// Prints the gate's verdict, writes the JSON, and returns the exit code:
  /// 0 only if every output was bit-identical and the JSON was written.
  int finish(const std::filesystem::path& json_path) const {
    const std::string mismatch = first_mismatch();
    std::printf(
        "output bit-identical across %zu scenarios x %d repeats: %s "
        "(crc32 %s)\npool workers: %zu; host threads: %u\n",
        scenarios_.size(), reps_,
        mismatch.empty() ? "YES"
                         : ("NO — differs at " + mismatch).c_str(),
        crc_hex(crc()).c_str(), cosmo::dpp::ThreadPool::instance().workers(),
        std::thread::hardware_concurrency());
    std::ofstream j(json_path, std::ios::trunc);
    write_json(j);
    j.close();
    if (!j) {
      std::fprintf(stderr, "failed to write %s\n", json_path.string().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.string().c_str());
    return mismatch.empty() ? 0 : 1;
  }

 private:
  std::string bench_;
  int reps_;
  std::vector<Scenario> scenarios_;
};

}  // namespace bench_common
