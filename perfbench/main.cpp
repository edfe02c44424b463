// perfbench — the repository benchmark.
//
//   perfbench --workload <pm_sim|insitu_tail|cosched_campaign> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>] [--git-rev <r>]
//             [--src-digest <d>]
//
// --trace 0 measures the end-to-end metrics with span recording off.
// --trace 1 spends half the budget untraced and half traced, and reports
// the per-layer metrics read from the spans and counters cosmo::obs already
// records, plus the tracing overhead. Either way every catalog is checked
// against a reference computed after all timing; the last stdout line is
// one JSON object {correct, attempted, failed, metrics}, and the exit code
// is nonzero when any output is wrong or any snapshot failed.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".bench_build/work";
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--git-rev") a.git_rev = v;
    else if (k == "--src-digest") a.src_digest = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

/// One reported metric: value, unit, sample count, and whether it is an
/// exact count (expected to repeat bit for bit between same-seed runs).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string kind;  ///< "timing", "ratio", "count", "exact-count"
  std::string note;
  bool in_json = true;  ///< listed in BENCHMARK.json, so on the result line
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

void print_table(const std::vector<Metric>& ms) {
  std::printf("%-28s %16s %-7s %8s  %-11s %s\n", "metric", "value", "unit",
              "samples", "kind", "note");
  for (const auto& m : ms)
    std::printf("%-28s %16s %-7s %8zu  %-11s %s\n", m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str(), m.samples,
                m.kind.c_str(), m.note.c_str());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end(const Args& a, const Report& rep,
                               double pool_s, double rss_mib,
                               std::size_t min_iters) {
  const Phase& ph = rep.phases.front();
  const auto tail = tail_of(ph.iter_s, min_iters);
  const std::size_t n = ph.iter_s.size();
  std::vector<Metric> ms = {
      {"setup_s", pool_s + median(rep.setup_s), "s", rep.setup_s.size(),
       "timing", "pool start-up + median set-up"},
      {"step_p50_s", median(ph.iter_s), "s", n, "timing", ""},
      {"step_tail_s", tail.value, "s", n, "timing",
       "p" + num(tail.percentile) + ", " + std::to_string(tail.beyond) +
           " samples beyond"},
      {"particles_per_s", ph.wall_s > 0 ? ph.particles / ph.wall_s : 0.0,
       "1/s", ph.units, "timing",
       a.workload == "pm_sim" ? "particle-steps" : "particles analysed"},
      {"sim_job_s", median(ph.sim_job_s), "s", ph.sim_job_s.size(), "timing",
       "per snapshot"},
      {"core_s", median(ph.core_s), "rank_s", ph.core_s.size(), "timing",
       "per snapshot"},
      {"peak_rss_mb", rss_mib, "MiB", 1, "timing", "high-water mark"},
  };
  if (!ph.catalog_lag_s.empty())
    ms.push_back({"catalog_lag_s", median(ph.catalog_lag_s), "s",
                  ph.catalog_lag_s.size(), "timing",
                  "campaign wall - sim job", false});
  return ms;
}

/// Exact counts of the traced phase, summed over its first cycle of units
/// (one unit of each input), flagged when a unit disagrees with the unit
/// one cycle before it, which ran the same input.
Metric exact_count(const Phase& ph, std::size_t cycle, const std::string& name,
                   const std::string& unit) {
  Metric m{name, 0.0, unit, ph.unit_counts.size(), "exact-count",
           cycle == 1 ? "per unit" : "per " + std::to_string(cycle) + " units"};
  auto count = [&](std::size_t i) {
    const auto it = ph.unit_counts[i].find(name);
    return it == ph.unit_counts[i].end() ? std::uint64_t{0} : it->second;
  };
  for (std::size_t i = 0; i < ph.unit_counts.size(); ++i) {
    if (i < cycle) m.value += static_cast<double>(count(i));
    else if (count(i) != count(i - cycle)) m.note = "NOT REPEATING";
  }
  return m;
}

std::vector<Metric> per_layer(const Args& a, const Report& rep,
                              bool& invariant_ok) {
  const Phase& untraced = rep.phases.front();
  const Phase& ph = rep.phases.back();
  const auto ro = rollup(ph.spans, ph.wall_s);
  invariant_ok = ro.invariant_violations == 0;
  const double it = std::max<double>(1.0, static_cast<double>(ph.iter_s.size()));
  const std::size_t n = ph.iter_s.size();
  auto d = [&](const std::string& c) {
    return static_cast<double>(delta(ph.counters_before, ph.counters_after, c));
  };
  auto layer = [&](const std::string& k) {
    const auto f = ph.layer.find(k);
    return f == ph.layer.end() ? std::vector<double>{} : f->second;
  };
  auto med = [&](const std::string& name, const std::string& unit,
                 const char* kind = "timing") {
    const auto v = layer(name);
    return Metric{name, median(v), unit, v.size(), kind, "median"};
  };
  auto spans_of = [&](const std::string& span) {
    const auto f = ro.count.find(span);
    return f == ro.count.end() ? std::uint64_t{0} : f->second;
  };
  auto self = [&](const std::string& name, const std::string& span) {
    return Metric{name, ro.max_rank(span) / it, "s", spans_of(span), "timing",
                  "self " + span + ", max rank, per iteration"};
  };
  auto incl = [&](const std::string& name, const std::string& span) {
    return Metric{name, ro.max_rank(span, true) / it, "s", spans_of(span),
                  "timing", "inclusive " + span + ", max rank, per iteration"};
  };
  auto uni = [&](const std::string& name, const std::string& span) {
    return Metric{name, ro.wall_union(span) / it, "s", spans_of(span), "timing",
                  "union " + span + " over threads, per iteration"};
  };
  const bool tail = a.workload == "insitu_tail";

  std::vector<Metric> ms;
  ms.push_back({"sim.ics_s", median(rep.ics_s), "s", rep.ics_s.size(), "timing",
                "zeldovich_ics, max rank, median over set-ups"});
  ms.push_back(med("sim.step_s", "s"));
  ms.push_back(self("sim.deposit_s", "sim.deposit"));
  ms.push_back(self("sim.solve_s", "sim.solve"));
  ms.push_back(self("sim.accel_s", "sim.accel"));
  ms.push_back(self("sim.kick_drift_s", "sim.step"));
  ms.push_back(med("sim.synthetic_s", "s"));
  for (const char* f : {"rows", "pack", "exchange", "unpack"}) {
    ms.push_back(self(std::string("fft.") + f + "_s", std::string("fft.") + f));
    ms.push_back(uni(std::string("fft.") + f + "_union_s", std::string("fft.") + f));
  }
  ms.push_back({"comm.recv_wait_s", d("comm.recv_wait_us") * 1e-6 / it, "s", n,
                "timing", "all ranks, per iteration"});
  {
    // Pipelined sessions only run in pm_sim's FFT transposes; each rank's
    // session there receives one block from each of its peers.
    const double remote =
        d("comm.alltoallv_sessions") * (PmSim::kCfg.ranks - 1);
    ms.push_back({"comm.a2a_overlap_frac",
                  remote > 0 ? d("comm.a2a_blocks_overlapped") / remote : 0.0,
                  "ratio", n, "ratio",
                  "base " + num(remote) + " remote blocks posted"});
  }
  ms.push_back(exact_count(ph, rep.cycle, "comm.msgs", "count"));
  ms.push_back(exact_count(ph, rep.cycle, "comm.bytes", "bytes"));
  ms.push_back({"dpp.dispatch_wait_s", d("dpp.dispatch_wait_us") * 1e-6 / it,
                "s", n, "timing", "all dispatchers, per iteration"});
  ms.push_back({"dpp.steal_frac",
                d("dpp.chunks_run") > 0 ? d("dpp.steals") / d("dpp.chunks_run") : 0.0,
                "ratio", n, "ratio", "base " + num(d("dpp.chunks_run")) + " chunks"});
  ms.push_back({"dpp.autotune_halvings", d("dpp.autotune_halvings"), "count", n,
                "count", "scheduler-dependent"});
  ms.push_back({"dpp.dispatches", d("dpp.dispatches") / it, "count", n, "count",
                "per iteration"});
  if (tail) {
    ms.push_back(med("halo.find_s", "s"));
    ms.push_back(med("halo.center_s", "s"));
    ms.push_back(med("halo.other_s", "s"));
  } else {
    ms.push_back(incl("halo.find_s", "halo.fof"));
    ms.push_back(incl("halo.center_s", "halo.centers"));
    ms.push_back(incl("halo.other_s", "halo.properties"));
  }
  ms.push_back(self("halo.fof_s", "halo.fof"));
  ms.push_back(self("halo.tree_s", "halo.tree"));
  ms.push_back(med("halo.center_imbalance", "ratio", "ratio"));
  ms.push_back(med("halo.post_center_s", "s"));
  ms.push_back(exact_count(ph, rep.cycle, "halo.halos", "count"));
  ms.push_back(med("stats.power_spectrum_s", "s"));
  ms.push_back(exact_count(ph, rep.cycle, "io.bytes_written", "bytes"));
  ms.push_back(exact_count(ph, rep.cycle, "io.bytes_read", "bytes"));
  ms.push_back(exact_count(ph, rep.cycle, "io.crc_validations", "count"));
  ms.push_back(med("sched.turnaround_s", "s"));
  ms.push_back(med("sched.trigger_per_poll", "ratio", "ratio"));
  ms.push_back(med("sched.max_concurrent", "count", "count"));
  ms.push_back(med("core.insitu_analysis_s", "s"));
  ms.push_back(exact_count(ph, rep.cycle, "core.deferred_halos", "count"));
  ms.push_back(exact_count(ph, rep.cycle, "core.level2_bytes", "bytes"));
  const double untraced_p50 = median(untraced.iter_s);
  ms.push_back({"obs.trace_overhead_ratio",
                untraced_p50 > 0 ? median(ph.iter_s) / untraced_p50 : 0.0,
                "ratio", n, "ratio", "traced / untraced step_p50_s"});
  ms.push_back({"obs.dropped_spans", static_cast<double>(ph.dropped_spans),
                "count", ph.spans.size(), "count", "must be 0"});
  ms.push_back({"obs.self_over_wall_max", ro.worst_ratio, "ratio",
                ro.rank_threads, "ratio",
                "max over rank threads of sum(self)/wall; must be <= 1"});
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  auto& tracer = cosmo::obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.set_ring_capacity(std::size_t{1} << 24);

  const fs::path workdir = fs::path(args.workdir) / (args.workload + "." +
                                                     std::to_string(::getpid()));
  std::unique_ptr<Workload> w;
  try {
    w = make_workload(args.workload, args.seed, workdir);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (!w || args.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
    std::cerr << "perfbench: need --workload pm_sim|insitu_tail|"
                 "cosched_campaign, --seconds > 0, --trace 0|1\n";
    return 2;
  }

  const auto faults_before = snapshot_counters();
  WallTimer pool_t;
  const std::size_t pool_workers = dpp::ThreadPool::instance().workers();
  const double pool_s = pool_t.seconds();

  constexpr std::size_t kSetups = 3;
  // Iteration floors: enough samples that the tail is p95 on pm_sim and
  // p75 on the others, whatever the host's speed. The traced run reports
  // no tail, only medians and per-iteration means, so a quarter will do.
  const std::size_t min_iters = args.workload == "pm_sim" ? 240 : 40;
  std::vector<PhasePlan> plan;
  if (args.trace == 0)
    plan = {{args.seconds, false, min_iters}};
  else
    plan = {{args.seconds / 2, false, min_iters / 4},
            {args.seconds / 2, true, min_iters / 4}};

  Report rep;
  try {
    rep = w->run(kSetups, plan);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload failed: " << e.what() << "\n";
    fs::remove_all(workdir);
    return 1;
  }
  const double rss = peak_rss_mib();
  w->check(rep);
  fs::remove_all(workdir);
  const auto faults_after = snapshot_counters();
  const std::uint64_t injected =
      delta(faults_before, faults_after, "faults.injected");

  std::uint64_t attempted = 0, failed = rep.mismatches;
  std::uint64_t threw = 0, degraded = 0, dead = 0, jobs = 0;
  for (const auto& ph : rep.phases) {
    attempted += ph.snapshots;
    threw += ph.threw;
    degraded += ph.degraded;
    dead += ph.dead_letters;
    jobs += ph.job_failures;
  }
  failed += threw + degraded + dead + jobs;

  std::vector<Metric> ms;
  bool invariant_ok = true;
  if (args.trace == 0)
    ms = end_to_end(args, rep, pool_s, rss, min_iters);
  else
    ms = per_layer(args, rep, invariant_ok);
  const std::uint64_t dropped = rep.phases.back().dropped_spans;

  std::printf("perfbench %s seed=%llu trace=%d\n", w->name(),
              static_cast<unsigned long long>(args.seed), args.trace);
  print_table(ms);
  std::printf(
      "failed_frac %s ratio (failed %llu / attempted %llu: threw %llu, "
      "degraded %llu, dead-letter %llu, job failures %llu, catalog "
      "mismatches %llu of %llu checked)\n",
      num(attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0).c_str(),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(threw),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(dead),
      static_cast<unsigned long long>(jobs),
      static_cast<unsigned long long>(rep.mismatches),
      static_cast<unsigned long long>(rep.checked));
  std::printf(
      "meta {\"nproc\": %u, \"dpp.pool_workers\": %zu, \"build_type\": "
      "\"%s\", \"git_rev\": \"%s\", \"src_digest\": \"%s\", \"workload\": "
      "\"%s\", \"seed\": %llu, \"seconds\": %s, \"setups\": %zu, "
      "\"faults_injected\": %llu, \"problem\": %s}\n",
      std::thread::hardware_concurrency(), pool_workers, PERFBENCH_BUILD_TYPE,
      args.git_rev.c_str(), args.src_digest.c_str(), w->name(),
      static_cast<unsigned long long>(args.seed), num(args.seconds).c_str(),
      kSetups, static_cast<unsigned long long>(injected),
      w->problem_json().c_str());

  bool correct = failed == 0 && injected == 0 && rep.checked > 0;
  if (args.trace == 1) {
    if (dropped != 0) std::printf("ERROR: %llu spans dropped\n",
                                  static_cast<unsigned long long>(dropped));
    if (!invariant_ok) std::printf("ERROR: self-time invariant violated\n");
    correct = correct && dropped == 0 && invariant_ok;
  }
  for (const auto& e : rep.shape_errors) std::printf("ERROR: shape: %s\n", e.c_str());
  correct = correct && rep.shape_errors.empty();

  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : ms) {
    if (!m.in_json) continue;
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}
