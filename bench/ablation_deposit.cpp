// Ablation: the CIC deposit phase, serial vs pooled scatter-reduce.
//
// The deposit was the last serial stage of the PM/analysis pipeline: every
// other grid loop dispatched on the dpp pool while deposit_density pinned a
// core on a single-threaded scatter. This bench measures the per-deposit
// cost of Backend::Serial vs Backend::ThreadPool (the deterministic
// per-thread slab reduction in dpp::deposit_reduce), both standalone and
// while analysis drivers hammer the same process-wide pool — the paper's
// co-scheduling scenario, where the in-situ analysis and the solver share
// one node. It also checks the headline contract: every deposit on both
// backends produces a bit-identical δ field (CRC32 over the raw doubles,
// ghost planes included).
//
// Results land in BENCH_pm.json.
#include <cstdio>

#include "bench_common.h"
#include "dpp/primitives.h"
#include "sim/cosmology.h"
#include "sim/pm_solver.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace cosmo;
using bench_common::counter_total;

namespace {

constexpr std::size_t kGrid = 64;
constexpr double kBox = 64.0;
constexpr std::size_t kParticles = 4 * kGrid * kGrid * kGrid;  // 4 per cell
constexpr int kReps = 8;
constexpr int kAnalysisDrivers = 2;

/// One scenario: kReps full-box deposits on the given backend, with
/// `drivers` analysis-driver threads sharing the pool for the whole duration.
bench_common::Scenario run_scenario(bench_common::Runner& runner,
                                    const char* name, dpp::Backend be,
                                    int drivers) {
  bench_common::AnalysisDrivers co_scheduled(drivers);
  bench_common::Scenario result;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    sim::PmSolver pm(c, cosmo, kGrid, kBox);
    pm.set_backend(be);
    sim::ParticleSet p;
    Rng rng(20151115);
    for (std::size_t i = 0; i < kParticles; ++i)
      p.push_back(static_cast<float>(rng.uniform(0, kBox)),
                  static_cast<float>(rng.uniform(0, kBox)),
                  static_cast<float>(rng.uniform(0, kBox)), 0, 0, 0, 0);
    const double mean = static_cast<double>(kParticles) /
                        static_cast<double>(kGrid * kGrid * kGrid);
    result = runner.run(name, [&](int) {
      const double buffers0 = counter_total("dpp.deposit_buffers");
      const double steals0 = counter_total("dpp.steals");
      WallTimer t;
      auto delta = pm.deposit_density(p, mean);
      bench_common::Sample s;
      s.seconds = t.seconds();
      const auto d = delta.data();
      s.crc = crc32(d.data(), d.size() * sizeof(double));
      s.fields = {
          {"private_buffers", counter_total("dpp.deposit_buffers") - buffers0},
          {"steals", counter_total("dpp.steals") - steals0}};
      return s;
    });
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header(
      "Ablation — serial vs pooled CIC deposit (deterministic scatter-reduce)",
      "the in-situ density pipeline; deposit was the last serial stage");

  bench_common::Runner runner("ablation_deposit", kReps);
  const auto serial =
      run_scenario(runner, "serial_standalone", dpp::Backend::Serial, 0);
  const auto pooled =
      run_scenario(runner, "pooled_standalone", dpp::Backend::ThreadPool, 0);
  const auto serial_co = run_scenario(runner, "serial_concurrent_analysis",
                                      dpp::Backend::Serial, kAnalysisDrivers);
  const auto pooled_co =
      run_scenario(runner, "pooled_concurrent_analysis",
                   dpp::Backend::ThreadPool, kAnalysisDrivers);

  TextTable t({"scenario", "deposit median (ms)", "speedup", "buffers",
               "steals"});
  auto add = [&](const char* name, const bench_common::Scenario& s,
                 const bench_common::Scenario& base) {
    t.add_row({name, TextTable::num(s.seconds().median * 1e3, 2),
               TextTable::num(base.seconds().median /
                                  std::max(s.seconds().median, 1e-12),
                              2),
               TextTable::num(s.field("private_buffers").median, 0),
               TextTable::num(s.field("steals").median, 0)});
  };
  add("serial standalone (baseline)", serial, serial);
  add("pooled standalone", pooled, serial);
  add("serial + analysis drivers", serial_co, serial_co);
  add("pooled + analysis drivers", pooled_co, serial_co);
  t.print(std::cout);
  std::printf(
      "grid %zu^3, %zu particles, %d deposits per scenario (medians "
      "reported); %d analysis drivers in the concurrent scenarios\n",
      kGrid, kParticles, kReps, kAnalysisDrivers);
  return runner.finish("BENCH_pm.json");
}
