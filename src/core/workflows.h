// The workflow runner — Fig. 1 made executable.
//
// Five analysis workflows over the same simulation snapshot:
//
//   in-situ           all analysis in the simulation job; no I/O, no queue.
//   off-line          simulation writes Level 1; a separate full-size job
//                     reads, redistributes, and analyzes everything.
//   combined simple   in-situ halo finding + centers for halos ≤ threshold;
//                     particles of larger halos written as Level 2; a small
//                     off-line job centers them; catalogs are reconciled.
//   combined co-scheduled
//                     same data path, but the off-line job is submitted by
//                     the Listener the moment the Level 2 trigger file
//                     appears, overlapping the simulation.
//   combined in-transit
//                     Level 2 goes through the shared staging area (burst
//                     buffer) instead of the filesystem.
//
// Every variant runs as a sequence of real jobs (each an SPMD run over its
// own communicator — exactly like separate batch jobs), moves data through
// real files / staging buffers, and fills a phase ledger with measured
// wall-clock maxima across ranks: Sim / Analysis / Write on the simulation
// job and Read / Redistribute / Analysis / Write on the post-processing
// job — the rows of Table 4.
#pragma once

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm.h"
#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "core/split_tuner.h"
#include "faults/faults.h"
#include "io/aggregated.h"
#include "io/cosmo_io.h"
#include "obs/obs.h"
#include "sched/listener.h"
#include "sched/staging.h"
#include "sim/synthetic.h"
#include "stats/catalog.h"
#include "util/retry.h"
#include "util/timer.h"

namespace cosmo::core {

enum class WorkflowKind {
  InSitu,
  OffLine,
  CombinedSimple,
  CombinedCoScheduled,
  CombinedInTransit,
};

inline const char* to_string(WorkflowKind k) {
  switch (k) {
    case WorkflowKind::InSitu:
      return "in-situ";
    case WorkflowKind::OffLine:
      return "off-line";
    case WorkflowKind::CombinedSimple:
      return "in-situ/off-line (simple)";
    case WorkflowKind::CombinedCoScheduled:
      return "in-situ/off-line (co-scheduled)";
    case WorkflowKind::CombinedInTransit:
      return "in-situ/off-line (in-transit)";
  }
  return "?";
}

struct WorkflowProblem {
  sim::SyntheticConfig universe;       ///< the snapshot under analysis
  int ranks = 4;                       ///< "simulation" job size
  int analysis_ranks = 2;              ///< combined post-processing job size
  int ranks_per_file = 2;              ///< Level 1 aggregation factor
  dpp::Backend backend = dpp::Backend::ThreadPool;
  /// Backend for the combined variants' off-line analysis job — the
  /// analysis cluster's hardware. ThreadPool models a GPU cluster
  /// (Moonlight/Titan); Serial models a CPU-only cluster (Rhea), which the
  /// paper found "slowed down the center finding considerably" (§4.2).
  dpp::Backend analysis_backend = dpp::Backend::ThreadPool;
  double linking_length = 0.25;
  std::size_t min_halo_size = 40;
  double overload = 2.0;               ///< must exceed the largest halo extent
  std::uint64_t threshold = 300000;    ///< in-situ/off-line split (combined)
  bool compute_so_mass = true;
  bool compute_subhalos = false;
  std::size_t subhalo_min_host = 5000;
  std::filesystem::path workdir;       ///< scratch for Level 1/2/3 files
  std::uint64_t staging_capacity = 1ull << 30;
  /// How long the in-transit consumer waits for a staged buffer before
  /// treating the handoff as failed and falling back.
  std::chrono::milliseconds staging_take_timeout{10000};
};

struct PhaseTimes {
  // Simulation job (per-phase wall-clock, max over ranks).
  double sim = 0, analysis = 0, write = 0;
  // Post-processing job.
  double read = 0, redistribute = 0, post_analysis = 0, post_write = 0;
  // Per-rank in-situ breakdown (Table 2 / Fig. 4 / §4.2 inputs).
  // `other_per_rank` holds the remaining pipeline algorithms (SO mass,
  // subhalos) — with SO disabled it is the per-rank subhalo time.
  std::vector<double> find_per_rank, center_per_rank, other_per_rank;
  std::vector<double> post_center_per_rank;
  // In-situ subhalo hosts (halos above subhalo_min_host) per rank; all 0
  // when subhalos are off. A rank with none has no subhalo time to compare.
  std::vector<std::uint64_t> subhalo_hosts_per_rank;

  double sim_total() const { return sim + analysis + write; }
  double post_total() const {
    return read + redistribute + post_analysis + post_write;
  }
};

struct WorkflowResult {
  WorkflowKind kind = WorkflowKind::InSitu;
  stats::HaloCatalog catalog;  ///< the complete, reconciled Level 3 product
  PhaseTimes times;
  std::uint64_t level1_bytes = 0, level2_bytes = 0, level3_bytes = 0;
  std::uint64_t total_halos = 0, deferred_halos = 0;
  std::uint64_t listener_triggers = 0, listener_polls = 0;
  // Recovery bookkeeping (all zero on a fault-free run).
  std::uint64_t degraded_steps = 0;      ///< steps that fell back to in-situ
  std::uint64_t staging_fallbacks = 0;   ///< ranks routed Level 2 via files
  std::uint64_t dead_letter_submits = 0; ///< listener submits that gave up
  std::uint64_t submit_retries = 0;      ///< extra listener submit attempts
};

namespace detail {

/// Serialized form of a set of halos: [u64 n_halos] then per halo
/// [u64 count][PackedParticle × count]. Used for Level 2 staging buffers.
inline std::vector<std::byte> pack_halos(
    const std::vector<sim::ParticleSet>& halos) {
  std::uint64_t bytes = sizeof(std::uint64_t);
  for (const auto& h : halos)
    bytes += sizeof(std::uint64_t) + h.size() * sizeof(sim::PackedParticle);
  std::vector<std::byte> out(bytes);
  std::byte* p = out.data();
  const std::uint64_t n = halos.size();
  std::memcpy(p, &n, sizeof(n));
  p += sizeof(n);
  for (const auto& h : halos) {
    const std::uint64_t c = h.size();
    std::memcpy(p, &c, sizeof(c));
    p += sizeof(c);
    for (std::size_t i = 0; i < h.size(); ++i) {
      const sim::PackedParticle w = sim::pack_particle(h, i);
      std::memcpy(p, &w, sizeof(w));
      p += sizeof(w);
    }
  }
  return out;
}

inline std::vector<sim::ParticleSet> unpack_halos(
    std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  const std::byte* end = p + bytes.size();
  auto need = [&](std::size_t n) {
    COSMO_REQUIRE(p + n <= end, "truncated staged halo buffer");
  };
  std::uint64_t n = 0;
  need(sizeof(n));
  std::memcpy(&n, p, sizeof(n));
  p += sizeof(n);
  std::vector<sim::ParticleSet> halos(n);
  for (auto& h : halos) {
    std::uint64_t c = 0;
    need(sizeof(c));
    std::memcpy(&c, p, sizeof(c));
    p += sizeof(c);
    h.reserve(c);
    for (std::uint64_t i = 0; i < c; ++i) {
      sim::PackedParticle w;
      need(sizeof(w));
      std::memcpy(&w, p, sizeof(w));
      p += sizeof(w);
      sim::unpack_particle(w, h);
    }
  }
  return halos;
}

/// Builds the CosmoTools config text for a workflow's analysis settings.
inline CosmoToolsConfig analysis_config(const WorkflowProblem& p,
                                        std::uint64_t threshold) {
  std::string text;
  text += "[halofinder]\n";
  text += "linking_length " + std::to_string(p.linking_length) + "\n";
  text += "min_size " + std::to_string(p.min_halo_size) + "\n";
  text += "overload " + std::to_string(p.overload) + "\n";
  text += "[centerfinder]\n";
  text += "threshold " + std::to_string(threshold) + "\n";
  text += "[somass]\n";
  text += std::string("enabled ") + (p.compute_so_mass ? "true" : "false") +
          "\n";
  text += "[subhalos]\n";
  text += std::string("enabled ") + (p.compute_subhalos ? "true" : "false") +
          "\n";
  text += "min_host " + std::to_string(p.subhalo_min_host) + "\n";
  return CosmoToolsConfig::parse(text);
}

/// Output of the simulation-side job on one rank.
struct SimJobOutput {
  stats::HaloCatalog catalog_part;            ///< in-situ Level 3 part
  std::vector<sim::ParticleSet> deferred;     ///< Level 2 halo particle sets
  std::vector<std::int64_t> deferred_ids;
  double find_s = 0, center_s = 0, other_s = 0;
};

/// Runs generation + the in-situ pipeline on one rank. threshold == 0 means
/// "center everything in-situ"; nonzero defers larger halos.
inline SimJobOutput run_insitu_pipeline(comm::Comm& c,
                                        const WorkflowProblem& p,
                                        std::uint64_t threshold,
                                        sim::ParticleSet& local,
                                        std::uint64_t total_particles) {
  sim::SlabDecomposition decomp(c.size(), p.universe.box);
  InSituAnalysisManager manager(c, decomp, p.universe.box, total_particles,
                                p.backend);
  register_halo_pipeline(manager);
  manager.configure(analysis_config(p, threshold));
  sim::StepContext step{1, 1, 1.0, 0.0};
  AnalysisContext ctx = manager.execute_step(step, local);

  SimJobOutput out;
  out.catalog_part = std::move(ctx.catalog);
  for (std::size_t d = 0; d < ctx.deferred_members.size(); ++d)
    out.deferred.push_back(
        ctx.fof->particles.select(ctx.deferred_members[d]));
  out.deferred_ids = std::move(ctx.deferred_ids);
  for (const auto& t : manager.timings()) {
    if (t.name == "halofinder")
      out.find_s += t.seconds;
    else if (t.name == "centerfinder")
      out.center_s += t.seconds;
    else
      out.other_s += t.seconds;
  }
  return out;
}

/// Off-line analysis of Level 2 halo particle sets (the "Moonlight" job):
/// LPT-balanced center finding (+ SO/subhalos when enabled). Returns the
/// off-line catalog part; fills per-rank center seconds. `backend` is the
/// executing cluster's hardware — normally p.analysis_backend, but a
/// degraded step runs on the simulation side's backend instead.
inline stats::HaloCatalog analyze_level2(
    comm::Comm& c, const WorkflowProblem& p, dpp::Backend backend,
    const std::vector<sim::ParticleSet>& halos, std::uint64_t total_particles,
    std::vector<double>* center_seconds_per_rank) {
  // Balance halos across analysis ranks by the n² cost model.
  std::vector<std::uint64_t> sizes(halos.size());
  for (std::size_t h = 0; h < halos.size(); ++h) sizes[h] = halos[h].size();
  CenterCostModel cost;  // relative weights only; coeff cancels in LPT
  auto assignment = balance_halos(sizes, static_cast<std::size_t>(c.size()),
                                  cost);

  halo::CenterConfig ccfg;
  ccfg.box = p.universe.box;
  halo::SoConfig scfg;
  scfg.particle_mass = 1.0;
  scfg.mean_density = static_cast<double>(total_particles) /
                      (p.universe.box * p.universe.box * p.universe.box);
  scfg.box = p.universe.box;
  halo::SubhaloConfig sub_cfg;
  sub_cfg.box = p.universe.box;
  sub_cfg.backend = backend;

  WallTimer timer;
  const auto& my_halos = assignment[static_cast<std::size_t>(c.rank())];
  // One task per assigned halo (the LPT assignment balances across ranks;
  // the fan-out balances within the rank), appended in assignment order so
  // the catalog is identical on both backends.
  stats::HaloCatalog mine(my_halos.size());
  {
    COSMO_TRACE_SPAN_CAT("halo.centers", "halo");
    dpp::for_each_index(
        backend, my_halos.size(),
        [&](std::size_t k) {
          const sim::ParticleSet& h = halos[my_halos[k]];
          std::vector<std::uint32_t> members(h.size());
          std::iota(members.begin(), members.end(), 0u);
          const auto r = halo::mbp_center_brute(backend, h, members, ccfg);
          stats::HaloRecord rec;
          // Halo id = minimum particle tag (the FOF id definition),
          // recoverable from the Level 2 block itself.
          rec.id = *std::min_element(h.tag.begin(), h.tag.end());
          rec.count = h.size();
          rec.cx = h.x[r.particle];
          rec.cy = h.y[r.particle];
          rec.cz = h.z[r.particle];
          rec.potential = static_cast<float>(r.potential);
          if (p.compute_so_mass) {
            const auto so =
                halo::so_mass(h, members, rec.cx, rec.cy, rec.cz, scfg);
            rec.so_mass = static_cast<float>(so.mass);
            rec.so_radius = static_cast<float>(so.radius);
          }
          if (p.compute_subhalos && h.size() > p.subhalo_min_host)
            rec.subhalos = static_cast<std::uint32_t>(
                halo::find_subhalos(h, members, sub_cfg).size());
          mine[k] = rec;
        },
        /*grain=*/1);
  }
  const double my_seconds = timer.seconds();
  if (center_seconds_per_rank)
    *center_seconds_per_rank = c.allgather_value(my_seconds);

  // Gather the off-line catalog onto rank 0.
  auto bytes = stats::catalog_to_bytes(mine);
  auto all = c.gatherv<std::byte>(bytes, 0);
  return c.rank() == 0 ? stats::catalog_from_bytes(all) : stats::HaloCatalog{};
}

/// Gathers per-rank catalog parts onto rank 0.
inline stats::HaloCatalog gather_catalog(comm::Comm& c,
                                         const stats::HaloCatalog& part) {
  auto bytes = stats::catalog_to_bytes(part);
  auto all = c.gatherv<std::byte>(bytes, 0);
  return c.rank() == 0 ? stats::catalog_from_bytes(all) : stats::HaloCatalog{};
}

inline void write_level3(const std::filesystem::path& path,
                         const stats::HaloCatalog& catalog,
                         std::uint64_t* bytes_out) {
  const auto bytes = stats::catalog_to_bytes(catalog);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  COSMO_REQUIRE(f.good(), "failed writing Level 3 catalog");
  if (bytes_out) *bytes_out = bytes.size();
}

}  // namespace detail

/// Runs the requested workflow end to end; returns the complete catalog and
/// the measured phase ledger. `problem.workdir` must exist and be writable.
WorkflowResult run_workflow(WorkflowKind kind, const WorkflowProblem& problem);

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

namespace detail {

/// Maximum of a local phase time across ranks, recorded on rank 0.
inline double phase_max(comm::Comm& c, double local) {
  return c.allreduce_value(local, comm::ReduceOp::Max);
}

struct Shared {
  std::mutex mutex;
  WorkflowResult result;
};

/// The simulation-side job, common to all variants. For OffLine it writes
/// Level 1 and does no analysis; otherwise it runs the in-situ pipeline
/// with the given threshold and emits Level 2 for deferred halos via
/// `emit_level2` (filesystem or staging, variant-dependent).
template <typename EmitLevel2>
void simulation_job(const WorkflowProblem& p, WorkflowKind kind,
                    std::uint64_t threshold, Shared& shared,
                    EmitLevel2&& emit_level2) {
  comm::run_spmd(p.ranks, [&](comm::Comm& c) {
    obs::TimedSpan t_sim("phase.sim", to_string(kind));
    sim::Cosmology cosmo;
    auto universe = sim::generate_synthetic(c, cosmo, p.universe);
    const double sim_s = t_sim.finish();

    double analysis_s = 0.0, write_s = 0.0;
    SimJobOutput out;
    std::uint64_t level2_local = 0;

    if (kind == WorkflowKind::OffLine) {
      obs::TimedSpan t_write("phase.write", to_string(kind));
      auto wr = io::write_aggregated(
          c, p.workdir / "level1", universe.local,
          {p.universe.box, 1.0, universe.total_particles, 0},
          p.ranks_per_file);
      write_s = t_write.finish();
      std::lock_guard lock(shared.mutex);
      shared.result.level1_bytes += wr.bytes_written;
    } else {
      obs::TimedSpan t_analysis("phase.analysis", to_string(kind));
      out = run_insitu_pipeline(c, p, threshold, universe.local,
                                universe.total_particles);
      analysis_s = t_analysis.finish();
      obs::TimedSpan t_write("phase.write", to_string(kind));
      for (const auto& h : out.deferred)
        level2_local += h.bytes();
      emit_level2(c, out);
      write_s = t_write.finish();
    }

    // Gather the in-situ catalog part and per-rank timings.
    auto catalog = gather_catalog(c, out.catalog_part);
    auto find_all = c.allgather_value(out.find_s);
    auto center_all = c.allgather_value(out.center_s);
    auto other_all = c.allgather_value(out.other_s);
    std::uint64_t hosts = 0;
    for (const auto& rec : out.catalog_part)
      hosts += p.compute_subhalos && rec.count > p.subhalo_min_host;
    auto hosts_all = c.allgather_value(hosts);
    const double sim_max = phase_max(c, sim_s);
    const double analysis_max = phase_max(c, analysis_s);
    const double write_max = phase_max(c, write_s);
    const auto deferred_total = c.allreduce_value<std::uint64_t>(
        out.deferred.size(), comm::ReduceOp::Sum);
    const auto level2_total =
        c.allreduce_value<std::uint64_t>(level2_local, comm::ReduceOp::Sum);

    if (c.rank() == 0) {
      std::lock_guard lock(shared.mutex);
      auto& r = shared.result;
      r.times.sim = sim_max;
      r.times.analysis = analysis_max;
      r.times.write += write_max;
      r.times.find_per_rank = find_all;
      r.times.center_per_rank = center_all;
      r.times.other_per_rank = other_all;
      r.times.subhalo_hosts_per_rank = hosts_all;
      r.catalog = std::move(catalog);  // in-situ part; post job may extend
      r.deferred_halos = deferred_total;
      r.level2_bytes = level2_total;
    }
  });
}

}  // namespace detail

inline WorkflowResult run_workflow(WorkflowKind kind,
                                   const WorkflowProblem& problem) {
  namespace fs = std::filesystem;
  COSMO_REQUIRE(!problem.workdir.empty(), "workflow needs a workdir");
  fs::create_directories(problem.workdir);
  detail::Shared shared;
  shared.result.kind = kind;

  const std::uint64_t threshold =
      kind == WorkflowKind::InSitu || kind == WorkflowKind::OffLine
          ? 0
          : problem.threshold;

  // --- variant-specific Level 2 emission ---------------------------------
  auto staging = std::make_shared<sched::StagingArea>(problem.staging_capacity);
  // Producer ranks whose staging put failed and were routed through the
  // filesystem instead; the consumer reads their Level 2 from files.
  // Guarded by shared.mutex.
  std::set<int> staging_fallback_ranks;

  // One Level 2 file per rank, one block per deferred halo; halo id is
  // recoverable as the block's minimum tag. Trigger file marks readiness.
  // A failed or partial write leaves an unfinalized file the reader would
  // reject, so the whole file is retried from scratch (the deferred halos
  // are still in memory).
  auto write_level2_files = [&](int rank,
                                const std::vector<sim::ParticleSet>& deferred) {
    const auto path =
        io::aggregated_file_path(problem.workdir / "level2", rank);
    util::Retry retry;
    const auto outcome = retry.run("workflow.level2_write", [&] {
      io::CosmoIoWriter w(path, {problem.universe.box, 1.0, 0, 0});
      for (const auto& h : deferred)
        w.write_block(h, static_cast<std::uint32_t>(rank));
      w.finalize();
      return true;
    });
    COSMO_REQUIRE(outcome.success,
                  "Level 2 write failed after retries: " + path.string());
    if (outcome.attempts > 1)
      COSMO_COUNT("workflow.write_retries",
                  static_cast<std::uint64_t>(outcome.attempts - 1));
    std::ofstream trigger(io::trigger_path(path));
    trigger << "ok\n";
  };

  auto emit_to_files = [&](comm::Comm& c, detail::SimJobOutput& out) {
    if (threshold == 0) return;
    write_level2_files(c.rank(), out.deferred);
  };

  auto emit_to_staging = [&](comm::Comm& c, detail::SimJobOutput& out) {
    if (threshold == 0) return;
    const auto buf = detail::pack_halos(out.deferred);
    if (staging->put("level2.rank" + std::to_string(c.rank()), buf)) return;
    // Burst buffer unavailable (capacity exhausted, closed, or injected
    // device failure): fall back to the filesystem — the overflow behaviour
    // the staging area documents — and tell the consumer where to look.
    COSMO_COUNT("workflow.staging_fallbacks", 1);
    write_level2_files(c.rank(), out.deferred);
    std::lock_guard lock(shared.mutex);
    ++shared.result.staging_fallbacks;
    staging_fallback_ranks.insert(c.rank());
  };

  // --- co-scheduling listener (real, watching the workdir) ---------------
  std::unique_ptr<sched::Listener> listener;
  std::atomic<int> jobs_submitted{0};
  if (kind == WorkflowKind::CombinedCoScheduled) {
    listener = std::make_unique<sched::Listener>(
        sched::ListenerConfig{problem.workdir, ".done",
                              std::chrono::milliseconds(5)},
        [&](const fs::path&) { ++jobs_submitted; });
    listener->start();
  }

  // --- simulation job ------------------------------------------------------
  if (kind == WorkflowKind::CombinedInTransit)
    detail::simulation_job(problem, kind, threshold, shared, emit_to_staging);
  else
    detail::simulation_job(problem, kind, threshold, shared, emit_to_files);

  bool degraded = false;
  if (listener) {
    listener->wait_for_triggers(static_cast<std::uint64_t>(problem.ranks),
                                std::chrono::milliseconds(5000));
    listener->stop();
    const auto stats = listener->stats();
    shared.result.listener_triggers = stats.triggers;
    shared.result.listener_polls = stats.polls;
    shared.result.dead_letter_submits = stats.dead_letters;
    shared.result.submit_retries = stats.submit_retries;
    // Co-scheduled analysis is unavailable when any trigger's submission
    // dead-lettered (failed permanently after retries) or triggers never
    // surfaced at all: degrade the step — the paper's own decision
    // structure — by running the deferred analysis on the simulation job's
    // resources instead.
    degraded = stats.dead_letters > 0 ||
               stats.triggers < static_cast<std::uint64_t>(problem.ranks);
  }
  if (kind == WorkflowKind::CombinedInTransit &&
      COSMO_FAULT_POINT("workflow.intransit_consumer")) {
    // The co-scheduled consumer died before the handoff; the staged data is
    // drained by the fallback job on the simulation side's resources.
    COSMO_COUNT("workflow.consumer_faults", 1);
    degraded = true;
  }

  // --- post-processing job -------------------------------------------------
  if (kind == WorkflowKind::OffLine) {
    comm::run_spmd(problem.ranks, [&](comm::Comm& c) {
      sim::SlabDecomposition decomp(c.size(), problem.universe.box);
      // Read this rank's share of blocks.
      obs::TimedSpan t_read("phase.read", to_string(kind));
      std::vector<fs::path> files;
      const int groups =
          (problem.ranks + problem.ranks_per_file - 1) / problem.ranks_per_file;
      for (int g = 0; g < groups; ++g)
        files.push_back(io::aggregated_file_path(problem.workdir / "level1", g));
      sim::ParticleSet mine;
      std::uint64_t total_particles = 0;
      std::size_t block_counter = 0;
      for (const auto& f : files) {
        io::CosmoIoReader reader(f);
        total_particles = reader.info().total_particles;
        for (std::uint32_t b = 0; b < reader.num_blocks();
             ++b, ++block_counter) {
          if (static_cast<int>(block_counter %
                               static_cast<std::size_t>(c.size())) != c.rank())
            continue;
          mine.append(reader.read_block(b));
        }
      }
      const double read_s = t_read.finish();
      obs::TimedSpan t_redist("phase.redistribute", to_string(kind));
      sim::ParticleSet owned = decomp.redistribute(c, std::move(mine));
      const double redist_s = t_redist.finish();

      obs::TimedSpan t_analysis("phase.post_analysis", to_string(kind));
      auto out = detail::run_insitu_pipeline(c, problem, 0, owned,
                                             total_particles);
      const double analysis_s = t_analysis.finish();
      auto catalog = detail::gather_catalog(c, out.catalog_part);
      auto center_all = c.allgather_value(out.center_s);

      const double read_max = detail::phase_max(c, read_s);
      const double redist_max = detail::phase_max(c, redist_s);
      const double analysis_max = detail::phase_max(c, analysis_s);
      if (c.rank() == 0) {
        obs::TimedSpan t_write("phase.post_write", to_string(kind));
        std::uint64_t l3 = 0;
        stats::sort_catalog(catalog);
        detail::write_level3(problem.workdir / "level3.catalog", catalog, &l3);
        std::lock_guard lock(shared.mutex);
        auto& r = shared.result;
        r.times.read = read_max;
        r.times.redistribute = redist_max;
        r.times.post_analysis = analysis_max;
        r.times.post_write = t_write.finish();
        r.times.post_center_per_rank = center_all;
        r.catalog = std::move(catalog);
        r.level3_bytes = l3;
      }
    });
  } else if (kind != WorkflowKind::InSitu) {
    // Combined variants: small analysis job over Level 2. A degraded step
    // runs the same job shape on the simulation job's ranks and backend —
    // in-situ fallback — and records the downgrade.
    const int post_ranks = degraded ? problem.ranks : problem.analysis_ranks;
    const dpp::Backend post_backend =
        degraded ? problem.backend : problem.analysis_backend;
    std::optional<obs::ScopedSpan> degraded_span;
    if (degraded) {
      COSMO_COUNT("workflow.degraded", 1);
      shared.result.degraded_steps = 1;
      degraded_span.emplace("workflow.degraded_step", "faults");
    }
    comm::run_spmd(post_ranks, [&](comm::Comm& c) {
      obs::TimedSpan t_read("phase.read", to_string(kind));
      std::vector<sim::ParticleSet> halos;
      bool read_failed = false;
      auto read_level2_file = [&](int src) {
        const auto path =
            io::aggregated_file_path(problem.workdir / "level2", src);
        io::CosmoIoReader reader(path);
        for (std::uint32_t b = 0; b < reader.num_blocks(); ++b)
          halos.push_back(reader.read_block(b));
      };
      try {
      if (kind == WorkflowKind::CombinedInTransit) {
        // Take every producer rank's staged buffer (blocking handoff),
        // dealt round-robin across analysis ranks. Ranks whose put fell
        // back to the filesystem are read from their Level 2 file instead.
        for (int src = 0; src < problem.ranks; ++src) {
          if (src % c.size() != c.rank()) continue;
          const bool fell_back = [&] {
            std::lock_guard lock(shared.mutex);
            return staging_fallback_ranks.count(src) != 0;
          }();
          std::optional<std::vector<std::byte>> buf;
          if (!fell_back) {
            const std::string name = "level2.rank" + std::to_string(src);
            buf = staging->take_blocking(name, problem.staging_take_timeout);
            if (!buf) {
              // Lost handoff (injected or timed out): the data may still be
              // resident — retry the take once before giving up.
              buf = staging->take(name);
              if (buf) COSMO_COUNT("workflow.staging_take_retries", 1);
            }
          }
          if (buf) {
            for (auto& h : detail::unpack_halos(*buf))
              halos.push_back(std::move(h));
          } else {
            COSMO_REQUIRE(fell_back, "staged Level 2 buffer missing: rank " +
                                         std::to_string(src));
            read_level2_file(src);
          }
        }
      } else {
        for (int src = 0; src < problem.ranks; ++src) {
          if (src % c.size() != c.rank()) continue;
          read_level2_file(src);
        }
      }
      } catch (const std::exception&) {
        // Keep collectives matched: a rank whose Level 2 acquisition failed
        // must not bail out while its peers wait in the allgather below.
        // Agree on the failure first, then all ranks throw together.
        read_failed = true;
        halos.clear();
      }
      const int any_read_failed =
          c.allreduce_value(read_failed ? 1 : 0, comm::ReduceOp::Max);
      COSMO_REQUIRE(any_read_failed == 0,
                    "Level 2 acquisition failed on a post-processing rank");
      const double read_s = t_read.finish();

      // "Redistribute": collect all halos onto every rank (they are then
      // LPT-assigned inside analyze_level2). Halo particle sets are shipped
      // whole — Level 2 communication.
      obs::TimedSpan t_redist("phase.redistribute", to_string(kind));
      std::vector<sim::ParticleSet> all_halos;
      {
        const auto buf = detail::pack_halos(halos);
        std::vector<std::size_t> counts;
        auto gathered = c.allgatherv<std::byte>(buf, &counts);
        // Segments concatenate in rank order; each is self-contained.
        std::size_t offset = 0;
        for (const auto len : counts) {
          auto segment = std::span<const std::byte>(gathered).subspan(offset, len);
          for (auto& h : detail::unpack_halos(segment))
            all_halos.push_back(std::move(h));
          offset += len;
        }
      }
      const double redist_s = t_redist.finish();

      obs::TimedSpan t_analysis("phase.post_analysis", to_string(kind));
      std::vector<double> center_per_rank;
      auto offline_catalog = detail::analyze_level2(
          c, problem, post_backend, all_halos,
          sim::synthetic_total_particles(problem.universe), &center_per_rank);
      const double analysis_s = t_analysis.finish();

      const double read_max = detail::phase_max(c, read_s);
      const double redist_max = detail::phase_max(c, redist_s);
      const double analysis_max = detail::phase_max(c, analysis_s);
      if (c.rank() == 0) {
        std::lock_guard lock(shared.mutex);
        auto& r = shared.result;
        obs::TimedSpan t_write("phase.post_write", to_string(kind));
        r.catalog = stats::reconcile_catalogs(r.catalog, offline_catalog);
        std::uint64_t l3 = 0;
        detail::write_level3(problem.workdir / "level3.catalog", r.catalog,
                             &l3);
        r.times.read = read_max;
        r.times.redistribute = redist_max;
        r.times.post_analysis = analysis_max;
        r.times.post_write = t_write.finish();
        r.times.post_center_per_rank = center_per_rank;
        r.level3_bytes = l3;
      }
    });
  } else {
    // Pure in-situ: rank 0 writes the Level 3 catalog (timed as write).
    obs::TimedSpan t_write("phase.write", to_string(kind));
    stats::sort_catalog(shared.result.catalog);
    std::uint64_t l3 = 0;
    detail::write_level3(problem.workdir / "level3.catalog",
                         shared.result.catalog, &l3);
    shared.result.times.write += t_write.finish();
    shared.result.level3_bytes = l3;
  }

  if (kind == WorkflowKind::InSitu || kind == WorkflowKind::OffLine)
    stats::sort_catalog(shared.result.catalog);
  shared.result.total_halos = shared.result.catalog.size();
  return shared.result;
}

}  // namespace cosmo::core
