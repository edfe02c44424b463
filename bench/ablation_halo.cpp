// Ablation: the halo-analysis chain, serial vs pooled dispatch.
//
// The halo chain (FOF linking + k-d tree build + MBP centers + SO/shape/
// concentration properties) was the last analysis phase still dispatching
// serially: the PM loops, FFT and deposit all ran on the dpp pool while the
// per-halo work pinned one core. This bench measures the full in-situ
// analysis step — register_full_halo_pipeline driven through the
// InSituAnalysisManager — on Backend::Serial vs Backend::ThreadPool, both
// standalone and while analysis-driver threads hammer the same process-wide
// pool (the paper's co-scheduling scenario). Each scenario runs the step
// kReps times and reports the median, so a stray scheduling hiccup cannot
// fake (or hide) a speedup.
//
// The headline contract is asserted, not eyeballed: every step's halo
// catalog is CRC'd and the process exits nonzero if any backend, scenario
// or repeat disagrees — the pooled chain must be bit-identical to serial,
// not merely statistically close.
//
// Results land in BENCH_halo.json.
#include <cstdio>

#include "bench_common.h"
#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "dpp/primitives.h"
#include "sim/cosmology.h"
#include "sim/synthetic.h"
#include "util/timer.h"

using namespace cosmo;
using bench_common::span_total;

namespace {

constexpr int kReps = 5;  // median-of-5 per scenario
constexpr int kAnalysisDrivers = 2;
constexpr const char* kSpans[] = {"halo.fof", "halo.tree", "halo.centers",
                                  "halo.properties"};
constexpr const char* kFields[] = {"fof_s", "tree_s", "centers_s",
                                   "properties_s"};

/// One scenario: kReps full analysis steps on the given backend, with
/// `drivers` analysis-driver threads sharing the pool for the whole duration.
bench_common::Scenario run_scenario(bench_common::Runner& runner,
                                    const char* name, dpp::Backend be,
                                    int drivers) {
  bench_common::AnalysisDrivers co_scheduled(drivers);
  bench_common::Scenario result;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    sim::SyntheticConfig ucfg;
    ucfg.box = 48.0;
    ucfg.seed = 20151115;
    ucfg.halo_count = 50;
    ucfg.min_particles = 60;
    ucfg.max_particles = 8000;  // the monster: O(n²) centering dominates
    ucfg.background_particles = 10000;
    ucfg.subclump_fraction = 0.0;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);
    sim::SlabDecomposition decomp(1, ucfg.box);
    core::InSituAnalysisManager manager(c, decomp, ucfg.box,
                                        u.total_particles, be);
    core::register_full_halo_pipeline(manager);
    manager.configure(core::CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length 0.32\nmin_size 40\noverload 2.0\n"));
    result = runner.run(name, [&](int rep) {
      double before[4];
      for (int k = 0; k < 4; ++k) before[k] = span_total(kSpans[k]);
      WallTimer t;
      sim::StepContext step{static_cast<std::size_t>(rep + 1),
                            static_cast<std::size_t>(kReps), 1.0, 0.0};
      auto ctx = manager.execute_step(step, u.local);
      bench_common::Sample s;
      s.seconds = t.seconds();
      s.crc = bench_common::catalog_crc(ctx.catalog);
      for (int k = 0; k < 4; ++k)
        s.fields.emplace_back(kFields[k], span_total(kSpans[k]) - before[k]);
      s.fields.emplace_back("halos", static_cast<double>(ctx.catalog.size()));
      return s;
    });
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header(
      "Ablation — serial vs pooled halo-analysis chain (FOF + tree + "
      "centers + properties)",
      "the in-situ halo pipeline; the last serially-dispatched analysis "
      "phase");

  bench_common::Runner runner("ablation_halo", kReps);
  const auto serial =
      run_scenario(runner, "serial_standalone", dpp::Backend::Serial, 0);
  const auto pooled =
      run_scenario(runner, "pooled_standalone", dpp::Backend::ThreadPool, 0);
  const auto serial_co = run_scenario(runner, "serial_concurrent_analysis",
                                      dpp::Backend::Serial, kAnalysisDrivers);
  const auto pooled_co =
      run_scenario(runner, "pooled_concurrent_analysis",
                   dpp::Backend::ThreadPool, kAnalysisDrivers);

  TextTable t({"scenario", "step median (s)", "fof (s)", "centers (s)",
               "props (s)", "speedup"});
  auto add = [&](const char* name, const bench_common::Scenario& s,
                 const bench_common::Scenario& base) {
    t.add_row({name, TextTable::num(s.seconds().median, 3),
               TextTable::num(s.field("fof_s").median, 3),
               TextTable::num(s.field("centers_s").median, 3),
               TextTable::num(s.field("properties_s").median, 3),
               TextTable::num(base.seconds().median /
                                  std::max(s.seconds().median, 1e-12),
                              2)});
  };
  add("serial standalone (baseline)", serial, serial);
  add("pooled standalone", pooled, serial);
  add("serial + analysis drivers", serial_co, serial_co);
  add("pooled + analysis drivers", pooled_co, serial_co);
  t.print(std::cout);
  std::printf(
      "%.0f catalog halos, %d analysis steps per scenario (medians "
      "reported); %d analysis drivers in the concurrent scenarios\n",
      serial.field("halos").median, kReps, kAnalysisDrivers);
  return runner.finish("BENCH_halo.json");
}
