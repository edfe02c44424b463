// The benchmark's three workloads, driven through the public entry points
// of sim, core and comm::run_spmd.
//
//   pm_sim           Zel'dovich ICs + PM leapfrog on 4 ranks (ThreadPool
//                    solver), P(k) in situ every step, FOF + centers on the
//                    final step. sim, fft and comm do the work.
//   insitu_tail      core::run_workflow(InSitu) on synthetic snapshots, each
//                    with one monster halo holding about half the halo mass,
//                    SO masses and subhalos on. halo and dpp do the work; the
//                    rank holding the monster sets the step.
//   cosched_campaign core::run_campaign: in-situ FOF + small-halo centers on
//                    4 sim ranks, Level 2 files + triggers, 2-rank analysis
//                    jobs launched by the Listener overlapping the next
//                    snapshot on the shared pool. io, sched and the Level 2
//                    allgatherv only run here.
//
// A workload runs `setups` set-ups (the last one continues into the timed
// phases), then each phase for its wall-clock budget in whole units (one
// simulation, one snapshot, one campaign). The synthetic workloads draw
// kInputs inputs from the seed and take them in turn. Every catalog a unit
// produces is reduced to a CRC; check() compares them with a reference
// computed after all timing.
#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "core/algorithms.h"
#include "core/campaign.h"
#include "core/cosmotools.h"
#include "core/workflows.h"
#include "dpp/thread_pool.h"
#include "harness.h"
#include "obs/obs.h"
#include "sim/ic.h"
#include "sim/pm_solver.h"
#include "sim/simulation.h"
#include "sim/synthetic.h"
#include "stats/catalog.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cosmo;

/// Registry counters behind the exact counts that come from obs. With
/// halo.halos, core.deferred_halos and core.level2_bytes, which the
/// workloads read from their results, these must repeat exactly between
/// same-seed runs and between the units of one run.
inline const std::map<std::string, std::string>& exact_counter_sources() {
  static const std::map<std::string, std::string> m = {
      {"comm.msgs", "comm.msgs_sent"},
      {"comm.bytes", "comm.bytes_sent"},
      {"io.bytes_written", "io.bytes_written"},
      {"io.bytes_read", "io.bytes_read"},
      {"io.crc_validations", "io.crc_validations"}};
  return m;
}

/// What one phase measured.
struct Phase {
  bool traced = false;
  std::vector<double> iter_s;          ///< wall of each timed iteration
  double wall_s = 0.0;                 ///< whole phase (whole units)
  double particles = 0.0;              ///< particles (pm_sim: particle-steps)
  std::vector<double> sim_job_s;       ///< per snapshot
  std::vector<double> core_s;          ///< per snapshot, rank·s
  std::vector<double> catalog_lag_s;   ///< per campaign
  std::size_t units = 0;
  std::size_t snapshots = 0;           ///< catalogs produced and checked
  std::uint64_t threw = 0, degraded = 0, dead_letters = 0, job_failures = 0;
  std::vector<std::vector<std::uint32_t>> unit_crcs;  ///< per unit
  /// Layer samples read from the workload's result structs, one per
  /// iteration (or per unit where the struct is per unit).
  std::map<std::string, std::vector<double>> layer;
  /// Exact counts of each unit.
  std::vector<std::map<std::string, std::uint64_t>> unit_counts;
  CounterSnapshot counters_before, counters_after;
  std::vector<obs::Span> spans;        ///< traced phases only
  std::uint64_t dropped_spans = 0;
};

struct PhasePlan {
  double seconds = 1.0;
  bool traced = false;
  std::size_t min_iters = 1;  ///< floor on timed iterations (whole units)
};

struct Report {
  std::vector<double> setup_s;         ///< one per set-up
  std::vector<double> ics_s;           ///< pm_sim: zeldovich_ics, max rank
  std::vector<Phase> phases;
  /// The timed units cycle through this many inputs: unit i of a phase
  /// runs input i mod cycle, so unit i's exact counts repeat at i + cycle.
  std::size_t cycle = 1;
  std::uint64_t mismatches = 0;        ///< filled by check()
  std::uint64_t checked = 0;
  /// Ways the measured snapshots lack the shape the workload is named for
  /// (filled by run() and check()); any makes the run incorrect.
  std::vector<std::string> shape_errors;
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline std::uint32_t catalog_crc(stats::HaloCatalog catalog) {
  stats::sort_catalog(catalog);
  const auto bytes = stats::catalog_to_bytes(catalog);
  return crc32(bytes.data(), bytes.size());
}

/// Opens a phase: counters, and a clean tracer that records from now on.
inline void begin_phase(Phase& ph, const PhasePlan& plan) {
  ph.traced = plan.traced;
  if (plan.traced) {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  ph.counters_before = snapshot_counters();
}

inline void end_phase(Phase& ph) {
  ph.counters_after = snapshot_counters();
  if (ph.traced) {
    obs::Tracer::instance().set_enabled(false);
    ph.spans = obs::Tracer::instance().snapshot();
    ph.dropped_spans = obs::Tracer::instance().dropped();
  }
}

/// Registry-sourced exact counts between two snapshots.
inline void add_counter_counts(std::map<std::string, std::uint64_t>& out,
                               const CounterSnapshot& before,
                               const CounterSnapshot& after) {
  for (const auto& [name, src] : exact_counter_sources())
    out[name] = delta(before, after, src);
}

/// Runs each planned phase in whole units: `unit(ph, before)` runs one unit
/// and records it into the phase (`before` holds the counters at its start).
/// A unit that throws is counted and ends the phase — the run has failed.
template <typename Unit>
void run_phases(Report& rep, const std::vector<PhasePlan>& plan, Unit&& unit) {
  for (const auto& pp : plan) {
    Phase& ph = rep.phases.emplace_back();
    begin_phase(ph, pp);
    WallTimer phase_t;
    while (phase_t.seconds() < pp.seconds || ph.iter_s.size() < pp.min_iters) {
      const auto before = snapshot_counters();
      ++ph.units;
      try {
        unit(ph, before);
      } catch (const std::exception&) {
        ++ph.threw;
        break;
      }
    }
    ph.wall_s = phase_t.seconds();
    end_phase(ph);
  }
}

/// An SPMD world of P ranks that meet at unit boundaries. Each rank runs
/// `body(comm, next)`; `next()` waits for every rank, and the barrier's
/// completion step calls `boundary()` while they wait: it returns whether
/// another unit follows. A rank that throws drops out of the barrier, so
/// the others are released instead of waiting forever: the next boundary
/// ends the world without calling `boundary()`, and run_spmd rethrows.
template <typename Boundary, typename Body>
void run_units(int P, Boundary&& boundary, Body&& body) {
  std::atomic<bool> failed{false};
  bool more = true;
  auto on_boundary = [&]() noexcept {
    more = !failed.load() && boundary();
  };
  std::barrier sync(P, on_boundary);
  comm::run_spmd(P, [&](comm::Comm& c) {
    try {
      body(c, [&] {
        sync.arrive_and_wait();
        return more;
      });
    } catch (...) {
      failed = true;
      sync.arrive_and_drop();
      throw;
    }
  });
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Problem size as a JSON object.
  virtual std::string problem_json() const = 0;
  virtual Report run(std::size_t setups, const std::vector<PhasePlan>& plan) = 0;
  /// Computes the reference outside all timing and counts mismatching
  /// catalogs into report.mismatches.
  virtual void check(Report& report) = 0;
};

// ---------------------------------------------------------------------------
// pm_sim

struct PmSimConfig {
  std::size_t ng = 64;
  double box = 256.0;
  double z_init = 50.0;
  std::size_t steps = 12;
  int ranks = 4;
  std::size_t ps_grid = 32;
  std::size_t ps_bins = 16;
  double linking_length = 0.8;  ///< 0.2 × mean interparticle spacing
  std::size_t min_size = 20;
  double overload = 12.0;
};

class PmSim : public Workload {
 public:
  static constexpr PmSimConfig kCfg{};

  explicit PmSim(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "pm_sim"; }

  std::string problem_json() const override {
    return "{\"ng\": " + std::to_string(kCfg.ng) +
           ", \"particles\": " + std::to_string(particles()) +
           ", \"steps_per_simulation\": " + std::to_string(kCfg.steps) +
           ", \"ranks\": " + std::to_string(kCfg.ranks) +
           ", \"ps_grid\": " + std::to_string(kCfg.ps_grid) +
           ", \"ic_seed\": " + std::to_string(ic_seed()) + "}";
  }

  Report run(std::size_t setups, const std::vector<PhasePlan>& plan) override {
    Report rep;
    for (std::size_t k = 0; k < setups; ++k)
      world(rep, dpp::Backend::ThreadPool,
            k + 1 == setups ? plan : std::vector<PhasePlan>{});
    return rep;
  }

  void check(Report& rep) override {
    Report ref;
    world(ref, dpp::Backend::Serial, {{0.0, false, 1}});
    const auto& want = ref.phases.at(0).unit_crcs.at(0);
    for (const auto& ph : rep.phases)
      for (const auto& crcs : ph.unit_crcs) {
        ++rep.checked;
        if (crcs != want) ++rep.mismatches;
      }
  }

 private:
  std::size_t particles() const { return kCfg.ng * kCfg.ng * kCfg.ng; }
  std::uint64_t ic_seed() const { return seed_ * 7919 + 12345; }

  core::CosmoToolsConfig analysis_config(dpp::Backend backend) const {
    const std::string s = std::to_string(kCfg.steps);
    return core::CosmoToolsConfig::parse(
        "[powerspectrum]\ncadence 1\ngrid " + std::to_string(kCfg.ps_grid) +
        "\nbins " + std::to_string(kCfg.ps_bins) + "\nbackend " +
        (backend == dpp::Backend::Serial ? "serial" : "threadpool") +
        "\n[halofinder]\ncadence " + s + "\nlinking_length " +
        std::to_string(kCfg.linking_length) + "\nmin_size " +
        std::to_string(kCfg.min_size) + "\noverload " +
        std::to_string(kCfg.overload) + "\n[centerfinder]\ncadence " + s +
        "\nthreshold 0\n[somass]\nenabled false\n[subhalos]\nenabled false\n");
  }

  /// One SPMD world: ICs + warm-up step (the set-up), then the phases.
  /// With an empty plan the world ends after set-up.
  void world(Report& rep, dpp::Backend backend,
             const std::vector<PhasePlan>& plan) {
    const int P = kCfg.ranks;
    const std::size_t S = kCfg.steps;
    sim::Cosmology cosmo;
    sim::IcConfig ic;
    ic.ng = kCfg.ng;
    ic.box = kCfg.box;
    ic.z_init = kCfg.z_init;
    ic.seed = ic_seed();
    const double a_init = sim::Cosmology::a_of_z(kCfg.z_init);
    const double da = (1.0 - a_init) / static_cast<double>(S);
    const double np = static_cast<double>(particles());

    // Per-rank, per-step timings of the current unit and its products.
    std::vector<std::vector<double>> step_s(P, std::vector<double>(S)),
        analysis_s(P, std::vector<double>(S)), ps_s(P, std::vector<double>(S));
    std::vector<stats::HaloCatalog> parts(P);
    std::vector<stats::PowerSpectrum> spectra(S);
    std::vector<double> ics_s(P);

    // Unit-boundary control, run by the barrier's completion step while
    // every rank waits (so the tracer and counters switch between units).
    // Returns whether another unit follows.
    const auto t_start = std::chrono::steady_clock::now();
    bool in_setup = true, phase_open = false;
    std::size_t phase = 0;
    std::chrono::steady_clock::time_point phase_t0, unit_t0;
    CounterSnapshot unit_before;
    auto open_phase = [&] {
      rep.phases.emplace_back();
      begin_phase(rep.phases.back(), plan[phase]);
      phase_t0 = std::chrono::steady_clock::now();
      phase_open = true;
    };
    auto on_boundary = [&]() noexcept {
      const auto now = std::chrono::steady_clock::now();
      if (in_setup) {
        in_setup = false;
        rep.setup_s.push_back(seconds_since(t_start));
        rep.ics_s.push_back(*std::max_element(ics_s.begin(), ics_s.end()));
        if (plan.empty()) return false;
        open_phase();
      } else {
        Phase& ph = rep.phases.back();
        // An iteration's wall is its slowest rank's step + analysis.
        for (std::size_t s = 0; s < S; ++s) {
          double worst = 0.0, worst_step = 0.0, worst_ps = 0.0;
          for (int r = 0; r < P; ++r) {
            worst = std::max(worst, step_s[r][s] + analysis_s[r][s]);
            worst_step = std::max(worst_step, step_s[r][s]);
            worst_ps = std::max(worst_ps, ps_s[r][s]);
          }
          ph.iter_s.push_back(worst);
          ph.layer["sim.step_s"].push_back(worst_step);
          ph.layer["stats.power_spectrum_s"].push_back(worst_ps);
        }
        const double unit_wall = std::chrono::duration<double>(now - unit_t0).count();
        ph.sim_job_s.push_back(unit_wall / static_cast<double>(S));
        ph.core_s.push_back(P * unit_wall / static_cast<double>(S));
        ph.particles += np * static_cast<double>(S);
        ++ph.units;
        ++ph.snapshots;
        stats::HaloCatalog all;
        for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
        std::uint32_t pk = 0;
        for (const auto& sp : spectra) {
          pk = crc32(sp.k.data(), sp.k.size() * sizeof(double), pk);
          pk = crc32(sp.power.data(), sp.power.size() * sizeof(double), pk);
          pk = crc32(sp.modes.data(), sp.modes.size() * sizeof(std::uint64_t), pk);
        }
        ph.unit_crcs.push_back({catalog_crc(all), pk});
        std::map<std::string, std::uint64_t> counts;
        add_counter_counts(counts, unit_before, snapshot_counters());
        counts["halo.halos"] = all.size();
        ph.unit_counts.push_back(std::move(counts));
        if (seconds_since(phase_t0) >= plan[phase].seconds &&
            ph.iter_s.size() >= plan[phase].min_iters) {
          ph.wall_s = seconds_since(phase_t0);
          end_phase(ph);
          phase_open = false;
          if (++phase == plan.size()) return false;
          open_phase();
        }
      }
      unit_before = snapshot_counters();
      unit_t0 = std::chrono::steady_clock::now();
      return true;
    };

    // A unit that throws is counted and ends the run, as in run_phases; a
    // throw during set-up propagates.
    try {
      run_units(P, on_boundary, [&](comm::Comm& c, auto&& next) {
        const auto r = static_cast<std::size_t>(c.rank());
        sim::ParticleSet ics;
        {
          obs::ScopedSpan span("bench.ics");
          WallTimer t;
          ics = sim::zeldovich_ics(c, cosmo, ic);
          ics_s[r] = t.seconds();
        }
        sim::PmSolver solver(c, cosmo, kCfg.ng, kCfg.box);
        solver.set_backend(backend);
        sim::SlabDecomposition decomp(c.size(), kCfg.box);
        core::InSituAnalysisManager manager(c, decomp, kCfg.box, particles(),
                                            backend);
        manager.add(std::make_unique<core::PowerSpectrumAlgorithm>());
        core::register_halo_pipeline(manager);
        manager.configure(analysis_config(backend));

        // One unit = the loop sim::Simulation::run runs, each call timed.
        // Simulation::run itself cannot be used: it never sets the solver's
        // backend, so it would always time a Serial solver.
        auto simulate = [&](std::size_t steps) {
          sim::ParticleSet p = ics;
          double a = a_init;
          for (std::size_t s = 1; s <= steps; ++s) {
            WallTimer t;
            {
              obs::ScopedSpan span("bench.pm_step");
              p = solver.step(std::move(p), a, da, np);
            }
            step_s[r][s - 1] = t.seconds();
            a += da;
            const std::size_t before = manager.timings().size();
            WallTimer t_an;
            obs::ScopedSpan span("bench.execute_step");
            auto ctx = manager.execute_step(
                {s, S, a, sim::Cosmology::z_of_a(a)}, p);
            span.finish();
            analysis_s[r][s - 1] = t_an.seconds();
            ps_s[r][s - 1] = 0.0;
            for (std::size_t i = before; i < manager.timings().size(); ++i)
              if (manager.timings()[i].name == "powerspectrum")
                ps_s[r][s - 1] += manager.timings()[i].seconds;
            if (r == 0 && !ctx.spectra.empty()) spectra[s - 1] = ctx.spectra.back();
            if (s == S) parts[r] = std::move(ctx.catalog);
          }
        };
        simulate(1);  // warm-up iteration
        while (next()) simulate(S);
      });
    } catch (const std::exception&) {
      if (!phase_open) throw;
      Phase& ph = rep.phases.back();
      ++ph.threw;
      ++ph.snapshots;
      ph.wall_s = seconds_since(phase_t0);
      end_phase(ph);
    }
  }

  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// synthetic snapshots

/// A planted halo of a synthetic config: its size and center.
struct Planted {
  std::size_t particles = 0;
  double x = 0.0, y = 0.0, z = 0.0;
};

/// The planted halos of a synthetic config: generate_synthetic's catalog
/// pass, replayed (the same sequence synthetic_total_particles replays).
inline std::vector<Planted> planted_halos(const sim::SyntheticConfig& cfg) {
  Rng rng(cfg.seed, 0);
  std::vector<Planted> h(cfg.halo_count);
  for (auto& p : h) {
    p.particles = static_cast<std::size_t>(sim::detail::powerlaw_mass(
        rng, static_cast<double>(cfg.min_particles),
        static_cast<double>(cfg.max_particles) + 0.999, cfg.mass_slope));
    p.x = rng.uniform(0.0, cfg.box);
    p.y = rng.uniform(0.0, cfg.box);
    p.z = rng.uniform(0.0, cfg.box);
  }
  return h;
}

/// The planted halo sizes of a synthetic config, largest first.
inline std::vector<std::size_t> planted_masses(const sim::SyntheticConfig& cfg) {
  std::vector<std::size_t> m;
  for (const auto& p : planted_halos(cfg)) m.push_back(p.particles);
  std::sort(m.begin(), m.end(), std::greater<>());
  return m;
}

/// The largest halo FOF may find among the planted halos once the
/// `leave_out` largest are set aside. A halo's particles lie within its
/// r_vir, so two halos whose centers are closer than their radii plus two
/// linking lengths (one more for a background particle between them) may
/// be found as one; a group of such halos may be found as one halo, or
/// split, but no halo found is larger than the group's total.
inline std::size_t largest_group(const sim::SyntheticConfig& cfg,
                                 double linking_length, std::size_t leave_out) {
  auto h = planted_halos(cfg);
  const auto total = sim::synthetic_total_particles(cfg);
  std::sort(h.begin(), h.end(), [](const Planted& a, const Planted& b) {
    return a.particles > b.particles;
  });
  h.erase(h.begin(), h.begin() + std::min(leave_out, h.size()));
  std::vector<double> r;
  for (const auto& p : h)
    r.push_back(sim::synthetic_halo_radius(sim::Cosmology{}, cfg.box, total,
                                           p.particles));
  std::vector<std::size_t> root(h.size());
  for (std::size_t i = 0; i < root.size(); ++i) root[i] = i;
  auto find = [&](std::size_t i) {
    while (root[i] != i) i = root[i] = root[root[i]];
    return i;
  };
  auto gap = [&](double a, double b) {  // periodic
    const double d = std::abs(a - b);
    return std::min(d, cfg.box - d);
  };
  for (std::size_t i = 0; i < h.size(); ++i)
    for (std::size_t j = i + 1; j < h.size(); ++j) {
      const double dx = gap(h[i].x, h[j].x), dy = gap(h[i].y, h[j].y),
                   dz = gap(h[i].z, h[j].z);
      const double reach = r[i] + r[j] + 2.0 * linking_length;
      if (dx * dx + dy * dy + dz * dz < reach * reach) root[find(i)] = find(j);
    }
  std::vector<std::size_t> size(h.size(), 0);
  for (std::size_t i = 0; i < h.size(); ++i) size[find(i)] += h[i].particles;
  return size.empty() ? 0 : *std::max_element(size.begin(), size.end());
}

/// The overload width that lets distributed FOF see every planted halo
/// whole, the correctness condition of halo/fof.h: the largest halo's
/// diameter (half as much again when subclumps may sit on its rim), plus a
/// linking length.
inline double overload_for(const sim::SyntheticConfig& u,
                           double linking_length) {
  const double r = sim::synthetic_halo_radius(
      sim::Cosmology{}, u.box, sim::synthetic_total_particles(u),
      planted_masses(u)[0]);
  const double rim = u.subclump_fraction > 0.0 ? 1.5 : 1.0;
  return 2.0 * rim * r + linking_length;
}

/// Records a shape error unless `catalog`'s largest halo holds most of the
/// `planted` particles of the largest planted halo. Up to a tenth may be
/// missing: the subclumps carved from a host can be found as halos of
/// their own. A halo cut by too narrow an overload loses far more.
inline void check_largest(Report& rep, const stats::HaloCatalog& catalog,
                          std::size_t planted, const std::string& where) {
  const std::uint64_t largest = stats::summarize(catalog).largest;
  if (largest < planted * 85 / 100)
    rep.shape_errors.push_back(where + ": largest halo has " +
                               std::to_string(largest) +
                               " particles, the largest planted one " +
                               std::to_string(planted));
}

/// Number of distinct inputs (snapshots on insitu_tail, campaigns on
/// cosched_campaign) one run cycles through: unit i of a phase runs input
/// i mod kInputs. Equal shapes do not make equal work: the center finder's
/// cost on a monster depends on how its particles fall, and the off-line
/// centering of two campaigns of the same shape can differ by half. A run
/// that times a mix of inputs moves far less from seed to seed.
inline constexpr std::size_t kInputs = 8;

/// The first `n` seeds of a sequence derived from `workload_seed` whose
/// universes `accept`. The shape the workload is named for (a monster of a
/// given size and mass share) is drawn, not hoped for, so every seed times
/// the same kind of snapshot.
inline std::vector<std::uint64_t> pick_seeds(
    std::uint64_t workload_seed, std::size_t n,
    const std::function<bool(std::uint64_t)>& accept) {
  std::vector<std::uint64_t> seeds;
  Rng seq(workload_seed, 0x5eed);
  for (int tries = 0; seeds.size() < n && tries < 10000000; ++tries) {
    const std::uint64_t s = seq() >> 16;
    if (accept(s)) seeds.push_back(s);
  }
  if (seeds.size() < n)
    throw std::runtime_error("too few snapshot seeds satisfy the workload shape");
  return seeds;
}

/// A JSON array of numbers.
template <typename T>
std::string json_list(const std::vector<T>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? ", " : "") + std::to_string(v[i]);
  return s + "]";
}

// ---------------------------------------------------------------------------
// insitu_tail

class InsituTail : public Workload {
 public:
  InsituTail(std::uint64_t seed, fs::path workdir)
      : workdir_(std::move(workdir)) {
    core::WorkflowProblem base;
    auto& u = base.universe;
    u.box = 48.0;
    u.halo_count = 40;
    u.min_particles = 60;
    u.max_particles = 10000;
    u.mass_slope = 1.9;
    u.background_particles = 8000;
    u.subclump_fraction = 0.1;
    u.subclump_min_host = 3000;
    base.ranks = 4;
    base.backend = dpp::Backend::ThreadPool;
    base.linking_length = 0.32;
    base.min_halo_size = 40;
    base.compute_so_mass = true;
    base.compute_subhalos = true;
    base.subhalo_min_host = 3000;
    for (const auto s : pick_seeds(seed, kInputs, [&](std::uint64_t s) {
           auto c = u;
           c.seed = s;
           const auto m = planted_masses(c);
           const double share = monster_share(m);
           return m[0] >= u.max_particles * 97 / 100 && share >= 0.48 &&
                  share <= 0.52;
         })) {
      auto p = base;
      p.universe.seed = s;
      p.overload = overload_for(p.universe, p.linking_length);
      const auto m = planted_masses(p.universe);
      monsters_.push_back(m[0]);
      shares_.push_back(monster_share(m));
      problems_.push_back(std::move(p));
    }
  }

  const char* name() const override { return "insitu_tail"; }

  std::string problem_json() const override {
    std::vector<std::uint64_t> particles, seeds;
    std::vector<double> overloads;
    for (const auto& p : problems_) {
      particles.push_back(sim::synthetic_total_particles(p.universe));
      seeds.push_back(p.universe.seed);
      overloads.push_back(p.overload);
    }
    const auto& p = problems_.front();
    return "{\"snapshots_per_cycle\": " + std::to_string(problems_.size()) +
           ", \"particles\": " + json_list(particles) +
           ", \"halos_planted\": " + std::to_string(p.universe.halo_count) +
           ", \"monster_particles\": " + json_list(monsters_) +
           ", \"monster_share\": " + json_list(shares_) +
           ", \"ranks\": " + std::to_string(p.ranks) +
           ", \"overload\": " + json_list(overloads) +
           ", \"snapshot_seeds\": " + json_list(seeds) + "}";
  }

  Report run(std::size_t setups, const std::vector<PhasePlan>& plan) override {
    Report rep;
    rep.cycle = problems_.size();
    for (std::size_t k = 0; k < setups; ++k) {
      WallTimer t;
      auto p = problems_[k % problems_.size()];
      p.workdir = workdir_ / ("setup" + std::to_string(k));
      fs::create_directories(p.workdir);
      core::run_workflow(core::WorkflowKind::InSitu, p);  // warm-up
      rep.setup_s.push_back(t.seconds());
    }
    run_phases(rep, plan, [&](Phase& ph, const CounterSnapshot& before) {
      auto p = problems_[ph.iter_s.size() % problems_.size()];
      p.workdir = workdir_ / "timed";
      ++ph.snapshots;
      WallTimer t;
      obs::ScopedSpan span("bench.run_workflow");
      const auto r = core::run_workflow(core::WorkflowKind::InSitu, p);
      span.finish();
      ph.iter_s.push_back(t.seconds());
      record(ph, p, r);
      std::map<std::string, std::uint64_t> counts;
      add_counter_counts(counts, before, snapshot_counters());
      counts["halo.halos"] = r.catalog.size();
      ph.unit_counts.push_back(std::move(counts));
      ph.unit_crcs.push_back({catalog_crc(r.catalog)});
    });
    return rep;
  }

  void check(Report& rep) override {
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      auto p = problems_[i];
      p.backend = dpp::Backend::Serial;
      p.workdir = workdir_ / ("reference" + std::to_string(i));
      const auto ref = core::run_workflow(core::WorkflowKind::InSitu, p).catalog;
      want.push_back(catalog_crc(ref));
      // The timed catalogs equal the reference, so its largest halo is
      // theirs: the planted monster must have been found nearly whole.
      check_largest(rep, ref, monsters_[i], "snapshot " + std::to_string(i));
    }
    for (const auto& ph : rep.phases)
      for (std::size_t j = 0; j < ph.unit_crcs.size(); ++j) {
        ++rep.checked;
        if (ph.unit_crcs[j] != std::vector{want[j % want.size()]}) ++rep.mismatches;
      }
  }

 private:
  void record(Phase& ph, const core::WorkflowProblem& p,
              const core::WorkflowResult& r) const {
    const auto& t = r.times;
    ph.particles += static_cast<double>(sim::synthetic_total_particles(p.universe));
    ph.sim_job_s.push_back(t.sim_total());
    ph.core_s.push_back(p.ranks * t.sim_total() + p.analysis_ranks * t.post_total());
    ph.degraded += r.degraded_steps;
    ph.dead_letters += r.dead_letter_submits;
    auto max_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    auto min_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    };
    ph.layer["sim.synthetic_s"].push_back(t.sim);
    ph.layer["core.insitu_analysis_s"].push_back(t.analysis);
    ph.layer["halo.find_s"].push_back(max_of(t.find_per_rank));
    ph.layer["halo.center_s"].push_back(max_of(t.center_per_rank));
    ph.layer["halo.other_s"].push_back(max_of(t.other_per_rank));
    const double lo = min_of(t.center_per_rank);
    ph.layer["halo.center_imbalance"].push_back(
        lo > 0.0 ? max_of(t.center_per_rank) / lo : 0.0);
  }

  static double monster_share(const std::vector<std::size_t>& m) {
    std::size_t total = 0;
    for (const auto x : m) total += x;
    return static_cast<double>(m[0]) / static_cast<double>(total);
  }

  std::vector<core::WorkflowProblem> problems_;  ///< one per input
  std::vector<std::size_t> monsters_;            ///< largest planted halo
  std::vector<double> shares_;                   ///< its share of halo mass
  fs::path workdir_;
};

// ---------------------------------------------------------------------------
// cosched_campaign

class CoschedCampaign : public Workload {
 public:
  CoschedCampaign(std::uint64_t seed, fs::path workdir)
      : workdir_(std::move(workdir)) {
    auto& b = cfg_.base;
    b.universe.box = 40.0;
    b.universe.halo_count = 24;
    b.universe.min_particles = 60;
    b.universe.max_particles = 8000;
    b.universe.background_particles = 12000;
    b.universe.subclump_fraction = 0.0;
    b.ranks = 4;
    b.analysis_ranks = 2;
    b.backend = dpp::Backend::ThreadPool;
    b.analysis_backend = dpp::Backend::ThreadPool;
    b.linking_length = 0.32;
    b.threshold = 1500;
    b.compute_so_mass = false;
    cfg_.timesteps = 4;
    cfg_.growth_per_step = 1.6;
    // Every snapshot's deferred work is fixed by its shape (defers()), each
    // deferred monster nearly the step's cap; its off-line job overlaps the
    // next snapshot (or ends the campaign): apart from it, no halo or
    // group of halos that may link crosses the split threshold. A monster
    // near the cap is the rarest draw, so it is tested first.
    seeds_ = pick_seeds(seed, kInputs, [&](std::uint64_t s) {
      for (std::size_t k = 0; k < cfg_.timesteps; ++k) {
        const auto u = step_universe(s, k);
        if (defers(k) && planted_masses(u)[0] < u.max_particles * 95 / 100)
          return false;
      }
      for (std::size_t k = 0; k < cfg_.timesteps; ++k)
        if (largest_group(step_universe(s, k), b.linking_length,
                          defers(k) ? 1 : 0) > b.threshold)
          return false;
      return true;
    });
    for (const auto s : seeds_) {
      double overload = 0.0;
      for (std::size_t k = 0; k < cfg_.timesteps; ++k)
        overload = std::max(overload,
                            overload_for(step_universe(s, k), b.linking_length));
      overloads_.push_back(overload);
    }
  }

  const char* name() const override { return "cosched_campaign"; }

  std::string problem_json() const override {
    std::vector<std::uint64_t> particles;
    for (const auto s : seeds_) particles.push_back(particles_per_campaign(s));
    return "{\"campaigns_per_cycle\": " + std::to_string(seeds_.size()) +
           ", \"snapshots\": " + std::to_string(cfg_.timesteps) +
           ", \"particles_per_campaign\": " + json_list(particles) +
           ", \"sim_ranks\": " + std::to_string(cfg_.base.ranks) +
           ", \"analysis_ranks\": " + std::to_string(cfg_.base.analysis_ranks) +
           ", \"split_threshold\": " + std::to_string(cfg_.base.threshold) +
           ", \"overload\": " + json_list(overloads_) +
           ", \"base_seeds\": " + json_list(seeds_) + "}";
  }

  Report run(std::size_t setups, const std::vector<PhasePlan>& plan) override {
    Report rep;
    rep.cycle = seeds_.size();
    std::size_t n = 0;
    for (std::size_t k = 0; k < setups; ++k) {
      WallTimer t;
      auto c = campaign(k % seeds_.size());
      c.base.workdir = workdir_ / ("setup" + std::to_string(k));
      fs::create_directories(c.base.workdir);
      core::run_campaign(c);  // warm-up
      rep.setup_s.push_back(t.seconds());
      fs::remove_all(c.base.workdir);
    }
    run_phases(rep, plan, [&](Phase& ph, const CounterSnapshot& before) {
      // Each campaign gets a fresh workdir: the Listener would fire on a
      // previous campaign's triggers.
      auto c = campaign(ph.iter_s.size() % seeds_.size());
      c.base.workdir = workdir_ / ("campaign" + std::to_string(n++));
      ph.snapshots += cfg_.timesteps;
      WallTimer t;
      obs::ScopedSpan span("bench.run_campaign");
      const auto r = core::run_campaign(c);
      span.finish();
      ph.iter_s.push_back(t.seconds());
      record(ph, c, r);
      std::map<std::string, std::uint64_t> counts;
      add_counter_counts(counts, before, snapshot_counters());
      std::uint64_t halos = 0, deferred = 0;
      std::vector<std::uint32_t> crcs;
      std::string by_step;
      for (const auto& s : r.steps) {
        halos += s.catalog.size();
        deferred += s.deferred_halos;
        crcs.push_back(catalog_crc(s.catalog));
        by_step += (by_step.empty() ? "" : ",") + std::to_string(s.deferred_halos);
      }
      if (by_step != planted_deferrals())
        rep.shape_errors.push_back("campaign deferred " + by_step +
                                   " halos by step, planted " +
                                   planted_deferrals());
      counts["halo.halos"] = halos;
      counts["core.deferred_halos"] = deferred;
      counts["core.level2_bytes"] = level2_bytes(c.base.workdir);
      ph.unit_counts.push_back(std::move(counts));
      ph.unit_crcs.push_back(std::move(crcs));
      fs::remove_all(c.base.workdir);
    });
    return rep;
  }

  /// Reference: each step's universe analysed fully in situ — the contract
  /// Campaign.MatchesPerStepInSituReference pins.
  void check(Report& rep) override {
    std::vector<std::vector<std::uint32_t>> want(seeds_.size());
    for (std::size_t i = 0; i < seeds_.size(); ++i)
      for (std::size_t k = 0; k < cfg_.timesteps; ++k) {
        core::WorkflowProblem p = campaign(i).base;
        p.universe = step_universe(seeds_[i], k);
        p.threshold = 0;
        p.workdir = workdir_ / ("reference" + std::to_string(k));
        const auto ref = core::run_workflow(core::WorkflowKind::InSitu, p).catalog;
        want[i].push_back(catalog_crc(ref));
        fs::remove_all(p.workdir);
        if (defers(k))
          check_largest(rep, ref, planted_masses(p.universe)[0],
                        "campaign " + std::to_string(i) + " step " +
                            std::to_string(k));
      }
    for (const auto& ph : rep.phases)
      for (std::size_t j = 0; j < ph.unit_crcs.size(); ++j) {
        const auto& crcs = ph.unit_crcs[j];
        const auto& w = want[j % want.size()];
        for (std::size_t k = 0; k < w.size(); ++k) {
          ++rep.checked;
          if (k >= crcs.size() || crcs[k] != w[k]) ++rep.mismatches;
        }
      }
  }

 private:
  /// Whether step k defers one monster to the off-line job: the last two
  /// steps do, the ones before defer nothing.
  bool defers(std::size_t k) const { return k + 2 >= cfg_.timesteps; }

  /// The planted deferred-halo counts by step, as run() lists them.
  std::string planted_deferrals() const {
    std::string s;
    for (std::size_t k = 0; k < cfg_.timesteps; ++k)
      s += std::string(s.empty() ? "" : ",") + (defers(k) ? "1" : "0");
    return s;
  }

  /// Input i: the campaign whose snapshots grow from seeds_[i].
  core::CampaignConfig campaign(std::size_t i) const {
    core::CampaignConfig c = cfg_;
    c.base.universe.seed = seeds_[i];
    c.base.overload = overloads_[i];
    return c;
  }

  /// Step k's universe, as run_campaign derives it from the base config.
  sim::SyntheticConfig step_universe(std::uint64_t base_seed,
                                     std::size_t k) const {
    sim::SyntheticConfig u = cfg_.base.universe;
    u.seed = base_seed + k;
    u.max_particles = static_cast<std::size_t>(
        static_cast<double>(cfg_.base.universe.max_particles) *
        std::pow(cfg_.growth_per_step,
                 static_cast<double>(k) -
                     static_cast<double>(cfg_.timesteps - 1)));
    u.max_particles = std::max(u.max_particles, u.min_particles);
    return u;
  }

  std::uint64_t particles_per_campaign(std::uint64_t base_seed) const {
    std::uint64_t n = 0;
    for (std::size_t k = 0; k < cfg_.timesteps; ++k)
      n += sim::synthetic_total_particles(step_universe(base_seed, k));
    return n;
  }

  static std::uint64_t level2_bytes(const fs::path& dir) {
    std::uint64_t bytes = 0;
    for (const auto& e : fs::directory_iterator(dir))
      if (e.is_regular_file() && e.path().extension() == ".cosmo")
        bytes += e.file_size();
    return bytes;
  }

  void record(Phase& ph, const core::CampaignConfig& c,
              const core::CampaignResult& r) const {
    const auto T = static_cast<double>(c.timesteps);
    double post = 0.0, insitu = 0.0;
    for (const auto& s : r.steps) {
      post += s.trigger_to_done_s;
      insitu += s.insitu_analysis_s;
      // Every step launches an analysis job, but only a deferring step's
      // job centers a monster; the others are near empty.
      if (s.deferred_halos > 0) {
        ph.layer["halo.post_center_s"].push_back(s.offline_analysis_s);
        ph.layer["sched.turnaround_s"].push_back(s.trigger_to_done_s);
      }
      ph.layer["core.insitu_analysis_s"].push_back(s.insitu_analysis_s);
    }
    ph.particles += static_cast<double>(particles_per_campaign(c.base.universe.seed));
    ph.sim_job_s.push_back(r.sim_job_s / T);
    ph.catalog_lag_s.push_back(r.wall_clock_s - r.sim_job_s);
    ph.core_s.push_back((c.base.ranks * r.sim_job_s +
                         c.base.analysis_ranks * post) / T);
    ph.degraded += r.degraded_steps;
    ph.dead_letters += r.dead_letter_submits;
    ph.job_failures += r.analysis_job_failures;
    ph.layer["sched.trigger_per_poll"].push_back(
        r.listener_polls ? static_cast<double>(r.listener_triggers) /
                               static_cast<double>(r.listener_polls)
                         : 0.0);
    ph.layer["sched.max_concurrent"].push_back(
        static_cast<double>(r.max_concurrent_analysis));
    ph.layer["sim.synthetic_s"].push_back((r.sim_job_s - insitu) / T);
  }

  core::CampaignConfig cfg_;           ///< shared by every input
  std::vector<std::uint64_t> seeds_;   ///< base seed of each input
  std::vector<double> overloads_;      ///< FOF overload of each input
  fs::path workdir_;
};

inline std::unique_ptr<Workload> make_workload(const std::string& name,
                                               std::uint64_t seed,
                                               const fs::path& workdir) {
  if (name == "pm_sim") return std::make_unique<PmSim>(seed);
  if (name == "insitu_tail") return std::make_unique<InsituTail>(seed, workdir);
  if (name == "cosched_campaign")
    return std::make_unique<CoschedCampaign>(seed, workdir);
  return nullptr;
}

}  // namespace perfbench
