// Regenerates the §4.2 subhalo paragraph: per-node subhalo-finding time
// imbalance.
//
// Paper: subhalo finding (halos >5000 particles) in-situ on 32 Titan CPU
// nodes took 8172 s on the slowest node vs 1457 s on the fastest — an
// imbalance above 5×, making it the second off-load candidate. We measure
// the same per-rank spread on a synthetic population with a comparable
// host-size tail. The ratio is taken over the ranks that hold at least one
// host: a rank with none spends ~0 s on subhalos, and dividing by that says
// nothing. Exits 1 when fewer than two ranks hold a host (ratio undefined).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace cosmo;

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header("§4.2 — subhalo finding per-node imbalance",
                             "Section 4.2, subhalo paragraph");

  auto p = bench_common::table34_problem("subhalo");
  p.universe.halo_count = 24;
  p.universe.min_particles = 600;
  p.universe.max_particles = 9000;
  p.universe.background_particles = 2000;
  p.universe.subclump_fraction = 0.2;
  p.universe.subclump_min_host = 2500;
  p.compute_so_mass = false;
  p.compute_subhalos = true;
  p.subhalo_min_host = 2500;  // downscaled "5000"
  p.threshold = 0;
  p.overload = 3.5;
  auto r = core::run_workflow(core::WorkflowKind::InSitu, p);
  std::filesystem::remove_all(p.workdir);

  // Per-rank pipeline breakdown from the manager's timing ledger (SO mass
  // is disabled, so the "other" column is pure subhalo finding).
  TextTable t({"rank", "hosts", "find (s)", "center (s)", "subhalos (s)"});
  std::vector<double> host_times;
  for (std::size_t rank = 0; rank < r.times.find_per_rank.size(); ++rank) {
    const std::uint64_t hosts = r.times.subhalo_hosts_per_rank[rank];
    if (hosts > 0) host_times.push_back(r.times.other_per_rank[rank]);
    t.add_row({std::to_string(rank), std::to_string(hosts),
               TextTable::num(r.times.find_per_rank[rank], 3),
               TextTable::num(r.times.center_per_rank[rank], 3),
               TextTable::num(r.times.other_per_rank[rank], 3)});
  }
  t.print(std::cout);

  const std::size_t no_host = r.times.other_per_rank.size() - host_times.size();
  if (host_times.size() < 2) {
    std::fprintf(stderr,
                 "\nonly %zu rank(s) hold a host above %zu particles: the "
                 "slowest/fastest ratio is undefined\n",
                 host_times.size(), p.subhalo_min_host);
    return 1;
  }
  const auto [smin, smax] =
      std::minmax_element(host_times.begin(), host_times.end());
  std::printf("\nsubhalo time slowest/fastest host-holding rank: %.3f / "
              "%.3f s (imbalance %.2fx); ranks with no host: %zu\n",
              *smax, *smin, *smax / *smin, no_host);

  std::uint32_t subhalos = 0;
  for (const auto& rec : r.catalog) subhalos += rec.subhalos;
  std::printf("\nhalos: %llu, subhalos found: %u\n",
              static_cast<unsigned long long>(r.total_halos), subhalos);
  const double amax = r.times.analysis;
  std::printf("slowest-rank total analysis: %.3f s\n", amax);
  std::printf("\npaper reference: slowest node 8172 s vs fastest 1457 s "
              "(imbalance > 5x) for subhalo finding on 32 CPU nodes.\n"
              "shape to match: per-rank times spread by the host-halo mass "
              "tail, motivating off-load of subhalo finding too.\n");
  return 0;
}
