// Ablation: the analysis cluster's hardware (§3.2 / §4.2).
//
// The paper weighed two co-scheduling hosts: Rhea, OLCF's designated
// analysis cluster with short queues but NO GPUs ("the lack of GPUs slowed
// down the center finding considerably"), and Titan itself, whose GPUs run
// the PISTON center finder ~50x faster but whose queue policy throttles
// small jobs. This bench runs the combined workflow's off-line job on both
// backend models and combines the measured compute with the queue model —
// reproducing why the paper reports timings from Titan and treats Rhea as
// a scheduling-only demonstration.
#include <cstdio>

#include "bench_common.h"
#include "sched/batch_scheduler.h"

using namespace cosmo;
using core::WorkflowKind;

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header(
      "Ablation — analysis-cluster hardware for the off-line job",
      "§3.2/§4.2 (Rhea CPU-only vs GPU cluster)");

  TextTable t({"analysis cluster", "backend", "post-analysis (s)",
               "queue wait model (s)", "catalog crc32"});

  std::uint32_t crcs[2] = {0, 0};
  double gpu_seconds = 0.0;
  for (const bool gpu : {true, false}) {
    auto p = bench_common::table34_problem(gpu ? "cluster_gpu" : "cluster_cpu");
    p.analysis_backend = gpu ? dpp::Backend::ThreadPool : dpp::Backend::Serial;
    auto r = core::run_workflow(WorkflowKind::CombinedSimple, p);
    std::filesystem::remove_all(p.workdir);
    crcs[gpu ? 0 : 1] = bench_common::catalog_crc(r.catalog);

    // Queue model: Titan small-job slot vs Rhea's open small-job queue.
    double wait;
    if (gpu) {
      // On Titan, two other small jobs already running → ours waits.
      sched::BatchScheduler titan(sched::MachineProfile::titan());
      titan.submit("other-small-1", 4, 1200.0, 0.0);
      titan.submit("other-small-2", 4, 1200.0, 0.0);
      auto id = titan.submit("our-analysis", 4, r.times.post_analysis, 10.0);
      titan.run_to_completion();
      wait = titan.job(id).wait_s();
      gpu_seconds = r.times.post_analysis;
    } else {
      sched::BatchScheduler rhea(sched::MachineProfile::rhea());
      rhea.submit("other-small-1", 4, 1200.0, 0.0);
      rhea.submit("other-small-2", 4, 1200.0, 0.0);
      auto id = rhea.submit("our-analysis", 4, r.times.post_analysis, 10.0);
      rhea.run_to_completion();
      wait = rhea.job(id).wait_s();
    }

    t.add_row({gpu ? "GPU cluster (Titan/Moonlight model)"
                   : "CPU-only cluster (Rhea model)",
               gpu ? "threadpool" : "serial",
               TextTable::num(r.times.post_analysis, 3),
               TextTable::num(wait, 0),
               bench_common::crc_hex(crcs[gpu ? 0 : 1])});
    if (!gpu)
      std::printf("CPU/GPU post-analysis ratio: %.2fx (paper: ~50x with real "
                  "K20X GPUs; here the ratio is this host's core count)\n",
                  r.times.post_analysis / gpu_seconds);
  }
  t.print(std::cout);

  const bool identical = crcs[0] == crcs[1];
  std::printf(
      "\ncatalogs bit-identical across clusters: %s\n"
      "shape to match: identical catalogs from either cluster (the PISTON "
      "single-source portability claim);\nthe GPU cluster wins on compute, "
      "the analysis cluster wins on queueing — the trade-off §3.2 describes."
      "\n",
      identical ? "YES" : "NO — portability contract violated");
  return identical ? 0 : 1;
}
