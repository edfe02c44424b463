// Backend bit-identity tests for the parallel halo-analysis chain: FOF
// linking blocks, the parallel k-d tree build, the per-halo property
// fan-out in the core pipeline, the property kernels and the subhalo
// finder.
// Everything here asserts EXACT equality between Serial and ThreadPool —
// the dpp contract — not tolerance-based agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "comm/comm.h"
#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "halo/fof.h"
#include "halo/kdtree.h"
#include "halo/so_mass.h"
#include "halo/subhalo.h"
#include "sim/cosmology.h"
#include "sim/synthetic.h"
#include "stats/catalog.h"
#include "stats/concentration.h"
#include "stats/halo_shape.h"
#include "stats/merger_tree.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using namespace cosmo::halo;
using sim::ParticleSet;

ParticleSet random_particles(std::size_t n, double box, std::uint64_t seed,
                             std::int64_t tag0 = 0) {
  Rng rng(seed);
  ParticleSet p;
  for (std::size_t i = 0; i < n; ++i)
    p.push_back(static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)), 0, 0, 0,
                tag0 + static_cast<std::int64_t>(i));
  return p;
}

/// Blobby universe with background noise — enough structure for FOF to
/// find real halos, enough noise to exercise pruning.
ParticleSet blob_universe(double box, std::uint64_t seed) {
  Rng rng(seed);
  ParticleSet p;
  std::int64_t tag = 0;
  for (int h = 0; h < 15; ++h) {
    const double cx = rng.uniform(1.0, box - 1.0);
    const double cy = rng.uniform(1.0, box - 1.0);
    const double cz = rng.uniform(1.0, box - 1.0);
    const auto n = static_cast<std::size_t>(rng.uniform(80, 500));
    for (std::size_t i = 0; i < n; ++i)
      p.push_back(static_cast<float>(rng.normal(cx, 0.2)),
                  static_cast<float>(rng.normal(cy, 0.2)),
                  static_cast<float>(rng.normal(cz, 0.2)), 0, 0, 0, tag++);
  }
  for (int i = 0; i < 2000; ++i)
    p.push_back(static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)), 0, 0, 0, tag++);
  return p;
}

/// Everything that defines a FOF catalog, for exact comparison.
using HaloTuple =
    std::tuple<std::int64_t, std::vector<std::uint32_t>, std::uint32_t>;

std::vector<HaloTuple> to_tuples(const std::vector<FofHalo>& halos) {
  std::vector<HaloTuple> out;
  out.reserve(halos.size());
  for (const auto& h : halos) out.emplace_back(h.id, h.members, h.min_tag_member);
  return out;
}

// ------------------------------------------------------------ parallel FOF --

TEST(ParallelFof, BitIdenticalAcrossGrainsAndBackends) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 101);
  FofConfig serial_cfg;
  serial_cfg.linking_length = 0.3;
  serial_cfg.min_size = 40;
  const auto reference =
      to_tuples(fof_find(p, Periodicity::all(box), serial_cfg));
  ASSERT_GT(reference.size(), 5u);

  for (const std::size_t grain : {std::size_t{0}, std::size_t{64},
                                  std::size_t{1024}}) {
    FofConfig cfg = serial_cfg;
    cfg.backend = dpp::Backend::ThreadPool;
    cfg.grain = grain;
    EXPECT_EQ(to_tuples(fof_find(p, Periodicity::all(box), cfg)), reference)
        << "grain " << grain;
  }
  // Serial with an explicit grain must be unchanged too (blocks don't
  // affect exact components).
  FofConfig cfg = serial_cfg;
  cfg.grain = 64;
  EXPECT_EQ(to_tuples(fof_find(p, Periodicity::all(box), cfg)), reference);
}

TEST(ParallelFof, MatchesBruteForce) {
  const double box = 16.0;
  Rng rng(7);
  ParticleSet p;
  std::int64_t tag = 0;
  for (int h = 0; h < 6; ++h) {
    const double cx = rng.uniform(1.0, 15.0), cy = rng.uniform(1.0, 15.0),
                 cz = rng.uniform(1.0, 15.0);
    for (int i = 0; i < 120; ++i)
      p.push_back(static_cast<float>(rng.normal(cx, 0.25)),
                  static_cast<float>(rng.normal(cy, 0.25)),
                  static_cast<float>(rng.normal(cz, 0.25)), 0, 0, 0, tag++);
  }
  FofConfig cfg;
  cfg.linking_length = 0.3;
  cfg.min_size = 40;
  cfg.backend = dpp::Backend::ThreadPool;
  cfg.grain = 32;
  const auto tree_halos = fof_find(p, Periodicity::all(box), cfg);
  const auto brute_halos = fof_brute_force(p, Periodicity::all(box), cfg);
  ASSERT_EQ(tree_halos.size(), brute_halos.size());
  auto member_sets = [](const std::vector<FofHalo>& halos) {
    std::map<std::int64_t, std::set<std::uint32_t>> m;
    for (const auto& h : halos)
      m[h.id] = std::set<std::uint32_t>(h.members.begin(), h.members.end());
    return m;
  };
  EXPECT_EQ(member_sets(tree_halos), member_sets(brute_halos));
}

TEST(ParallelFof, MinTagMemberIsArgMin) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 55);
  // Scramble tags so the min-tag member isn't trivially the first member.
  Rng rng(56);
  for (std::size_t i = 0; i < p.size(); ++i)
    std::swap(p.tag[i],
              p.tag[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                             static_cast<double>(p.size() - 1))]);
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    FofConfig cfg;
    cfg.linking_length = 0.3;
    cfg.min_size = 40;
    cfg.backend = backend;
    const auto halos = fof_find(p, Periodicity::all(box), cfg);
    ASSERT_GT(halos.size(), 3u);
    for (const auto& h : halos) {
      EXPECT_EQ(p.tag[h.min_tag_member], h.id);
      std::int64_t min_tag = p.tag[h.members.front()];
      for (const auto m : h.members) min_tag = std::min(min_tag, p.tag[m]);
      EXPECT_EQ(min_tag, h.id);
      EXPECT_TRUE(std::find(h.members.begin(), h.members.end(),
                            h.min_tag_member) != h.members.end());
    }
  }
}

class ParallelDistFof : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, ParallelDistFof, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(ParallelDistFof, BitIdenticalToSerialBackend) {
  const int P = GetParam();
  sim::SyntheticConfig scfg;
  scfg.box = 32.0;
  scfg.halo_count = 20;
  scfg.min_particles = 50;
  scfg.max_particles = 600;
  scfg.background_particles = 600;
  scfg.subclump_fraction = 0.0;
  scfg.seed = 77;

  auto run = [&](dpp::Backend backend, std::size_t grain) {
    std::vector<std::vector<HaloTuple>> per_rank(
        static_cast<std::size_t>(P));
    comm::run_spmd(P, [&](comm::Comm& c) {
      sim::Cosmology cosmo;
      auto u = sim::generate_synthetic(c, cosmo, scfg);
      sim::SlabDecomposition decomp(P, scfg.box);
      FofConfig cfg;
      cfg.linking_length = 0.35;
      cfg.min_size = 40;
      cfg.backend = backend;
      cfg.grain = grain;
      auto result = fof_distributed(c, decomp, u.local, cfg, 3.0);
      per_rank[static_cast<std::size_t>(c.rank())] = to_tuples(result.halos);
    });
    return per_rank;
  };

  const auto reference = run(dpp::Backend::Serial, 0);
  std::size_t total = 0;
  for (const auto& r : reference) total += r.size();
  ASSERT_GT(total, 5u);
  EXPECT_EQ(run(dpp::Backend::ThreadPool, 0), reference);
  EXPECT_EQ(run(dpp::Backend::ThreadPool, 128), reference);
}

// -------------------------------------------------------- parallel k-d tree --

TEST(ParallelKdTree, LayoutBackendInvariant) {
  const double box = 32.0;
  // Above kParallelBuildCutoff so several levels really build in parallel.
  ParticleSet p = random_particles(20000, box, 5);
  ASSERT_GT(p.size(), KdTree::kParallelBuildCutoff);
  const KdTree a =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::Serial);
  const KdTree b =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::ThreadPool);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.root(), b.root());
  const auto ia = a.index(), ib = b.index();
  ASSERT_EQ(ia.size(), ib.size());
  EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()));
  for (std::size_t id = 0; id < a.node_count(); ++id) {
    const auto& na = a.node(static_cast<std::int32_t>(id));
    const auto& nb = b.node(static_cast<std::int32_t>(id));
    ASSERT_EQ(na.begin, nb.begin) << "node " << id;
    ASSERT_EQ(na.end, nb.end) << "node " << id;
    ASSERT_EQ(na.left, nb.left) << "node " << id;
    ASSERT_EQ(na.right, nb.right) << "node " << id;
    for (int d = 0; d < 3; ++d) {
      ASSERT_EQ(na.lo[d], nb.lo[d]) << "node " << id;
      ASSERT_EQ(na.hi[d], nb.hi[d]) << "node " << id;
    }
  }
}

TEST(ParallelKdTree, QueriesMatchSerialTree) {
  const double box = 16.0;
  ParticleSet p = random_particles(6000, box, 9);
  const KdTree serial =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::Serial);
  const KdTree pooled =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::ThreadPool);
  Rng rng(10);
  for (int q = 0; q < 25; ++q) {
    const double qx = rng.uniform(0, box), qy = rng.uniform(0, box),
                 qz = rng.uniform(0, box);
    const double r = rng.uniform(0.3, 2.5);
    std::set<std::uint32_t> sa, sb;
    serial.for_each_in_range(qx, qy, qz, r,
                             [&](std::uint32_t i) { sa.insert(i); });
    pooled.for_each_in_range(qx, qy, qz, r,
                             [&](std::uint32_t i) { sb.insert(i); });
    EXPECT_EQ(sa, sb) << "query " << q;
    EXPECT_EQ(serial.k_nearest(qx, qy, qz, 12), pooled.k_nearest(qx, qy, qz, 12));
  }
}

// ------------------------------------------------------- per-halo fan-out --

/// Runs the full halo pipeline on one synthetic step and returns each rank's
/// catalog bytes. With `subhalos`, the universe plants subclumps in halos
/// of 150+ particles and SubhaloAlgorithm runs on FOF hosts above 100
/// members (FOF at this linking length keeps only the cores, ≤ ~330).
std::vector<std::vector<std::byte>> run_pipeline(dpp::Backend backend, int P,
                                                 const std::string& extra = {},
                                                 bool subhalos = false) {
  sim::SyntheticConfig ucfg;
  ucfg.box = 32.0;
  ucfg.halo_count = 12;
  ucfg.min_particles = 60;
  ucfg.max_particles = 1200;
  ucfg.background_particles = 500;
  ucfg.subclump_fraction = subhalos ? 0.2 : 0.0;
  ucfg.subclump_min_host = 150;
  ucfg.seed = 31;
  std::vector<std::vector<std::byte>> per_rank(static_cast<std::size_t>(P));
  comm::run_spmd(P, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);
    sim::SlabDecomposition decomp(P, ucfg.box);
    core::InSituAnalysisManager manager(c, decomp, ucfg.box,
                                        u.total_particles, backend);
    core::register_full_halo_pipeline(manager);
    if (subhalos) manager.add(std::make_unique<core::SubhaloAlgorithm>());
    manager.configure(core::CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length 0.3\nmin_size 40\noverload 2.0\n"
        "[subhalos]\nmin_host 100\nmin_size 20\n" +
        extra));
    sim::StepContext step{1, 1, 1.0, 0.0};
    auto ctx = manager.execute_step(step, u.local);
    per_rank[static_cast<std::size_t>(c.rank())] =
        stats::catalog_to_bytes(ctx.catalog);
  });
  return per_rank;
}

TEST(PerHaloFanout, CatalogBitIdenticalSerialVsThreadPool) {
  const auto serial = run_pipeline(dpp::Backend::Serial, 2);
  const auto pooled = run_pipeline(dpp::Backend::ThreadPool, 2);
  std::size_t bytes = 0;
  for (const auto& r : serial) bytes += r.size();
  ASSERT_GT(bytes, 0u);
  EXPECT_EQ(serial, pooled);
}

TEST(PerHaloFanout, ThresholdDeferralBitIdenticalSerialVsThreadPool) {
  // Halos above the threshold leave the in-situ catalog; the records that
  // stay must not depend on the backend. The largest FOF halo here has ~320
  // members, so 150 defers the four biggest and keeps the rest.
  const std::string extra = "[centerfinder]\nthreshold 150\n";
  const auto serial = run_pipeline(dpp::Backend::Serial, 1, extra);
  const auto pooled = run_pipeline(dpp::Backend::ThreadPool, 1, extra);
  ASSERT_GT(serial.front().size(), 0u);
  ASSERT_LT(serial.front().size(),
            run_pipeline(dpp::Backend::Serial, 1).front().size())
      << "no halo was deferred";
  EXPECT_EQ(serial, pooled);
}

TEST(PerHaloFanout, SubhaloCatalogBitIdenticalSerialVsThreadPool) {
  // SubhaloAlgorithm dispatches per host and, inside each host, the tree
  // build and neighbor queries on ctx.backend (nested on the pool).
  for (const int P : {1, 2}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    const auto serial = run_pipeline(dpp::Backend::Serial, P, {}, true);
    const auto pooled = run_pipeline(dpp::Backend::ThreadPool, P, {}, true);
    EXPECT_EQ(serial, pooled);
    std::uint32_t found = 0;
    for (const auto& r : serial)
      for (const auto& rec : stats::catalog_from_bytes(r))
        found += rec.subhalos;
    EXPECT_GT(found, 0u) << "no host produced a subhalo";
  }
}

// ------------------------------------------------------- property kernels --

TEST(ParallelProperties, KernelsBitIdenticalAcrossBackends) {
  const double box = 16.0;
  Rng rng(21);
  ParticleSet p;
  for (int i = 0; i < 3000; ++i)
    p.push_back(static_cast<float>(rng.normal(8.0, 0.4)),
                static_cast<float>(rng.normal(8.0, 0.7)),
                static_cast<float>(rng.normal(8.0, 1.1)), 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);

  for (const std::size_t grain : {std::size_t{0}, std::size_t{7},
                                  std::size_t{256}}) {
    SoConfig sa, sb;
    sa.box = sb.box = box;
    sa.mean_density = sb.mean_density = 1.0;
    sb.backend = dpp::Backend::ThreadPool;
    sa.grain = sb.grain = grain;
    const auto soa = so_mass(p, members, 8.0, 8.0, 8.0, sa);
    const auto sob = so_mass(p, members, 8.0, 8.0, 8.0, sb);
    EXPECT_EQ(soa.radius, sob.radius) << "grain " << grain;
    EXPECT_EQ(soa.mass, sob.mass) << "grain " << grain;
    EXPECT_EQ(soa.count, sob.count) << "grain " << grain;

    const auto sha = stats::halo_shape(p, members, 8.0, 8.0, 8.0, box,
                                       dpp::Backend::Serial, grain);
    const auto shb = stats::halo_shape(p, members, 8.0, 8.0, 8.0, box,
                                       dpp::Backend::ThreadPool, grain);
    EXPECT_EQ(sha.a, shb.a) << "grain " << grain;
    EXPECT_EQ(sha.b_over_a, shb.b_over_a) << "grain " << grain;
    EXPECT_EQ(sha.c_over_a, shb.c_over_a) << "grain " << grain;

    const auto ca = stats::concentration(p, members, 8.0, 8.0, 8.0, box,
                                         dpp::Backend::Serial, grain);
    const auto cb = stats::concentration(p, members, 8.0, 8.0, 8.0, box,
                                         dpp::Backend::ThreadPool, grain);
    EXPECT_EQ(ca.c, cb.c) << "grain " << grain;
    EXPECT_EQ(ca.r_half, cb.r_half) << "grain " << grain;

    const auto fa = stats::concentration_profile_fit(
        p, members, 8.0, 8.0, 8.0, box, 16, dpp::Backend::Serial, grain);
    const auto fb = stats::concentration_profile_fit(
        p, members, 8.0, 8.0, 8.0, box, 16, dpp::Backend::ThreadPool, grain);
    EXPECT_EQ(fa.c, fb.c) << "grain " << grain;
  }
}

TEST(ParallelSubhalos, FinderBitIdenticalAcrossGrainsAndBackends) {
  // Hosts: 2600 members with planted clumps, split across the periodic box
  // corner (parallel tree build at >= 2048 members; 2600 is not a multiple
  // of the 1024-member sweep block), and 18 members with num_neighbors 20
  // (k clamps to n).
  const float box = 16.0f;
  Rng rng(71);
  ParticleSet big;
  auto blob = [&](ParticleSet& p, std::size_t n, double c, double sigma) {
    for (std::size_t i = 0; i < n; ++i)
      p.push_back(static_cast<float>(rng.normal(c, sigma)),
                  static_cast<float>(rng.normal(c, sigma)),
                  static_cast<float>(rng.normal(c + 0.3, sigma)),
                  static_cast<float>(rng.normal(0, 0.5)),
                  static_cast<float>(rng.normal(0, 0.5)),
                  static_cast<float>(rng.normal(0, 0.5)),
                  static_cast<std::int64_t>(p.size()));
  };
  blob(big, 2000, 0.0, 0.8);
  blob(big, 300, 0.9, 0.06);
  blob(big, 300, -0.8, 0.05);
  big.wrap_positions(box);
  ParticleSet tiny;
  blob(tiny, 18, 8.0, 0.1);

  struct Host {
    const ParticleSet* p;
    std::size_t min_size;
    bool expect_subhalos;
  };
  for (const Host& host : {Host{&big, 20, true}, Host{&tiny, 5, false}}) {
    const ParticleSet& p = *host.p;
    std::vector<std::uint32_t> members(p.size());
    std::iota(members.begin(), members.end(), 0u);
    SubhaloConfig cfg;
    cfg.box = box;
    cfg.min_size = host.min_size;
    const auto rho_ref = local_densities(p, members, cfg);
    const auto ref = find_subhalos(p, members, cfg);
    if (host.expect_subhalos) {
      ASSERT_GE(ref.size(), 2u);
    }
    for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{64}}) {
      SCOPED_TRACE("n=" + std::to_string(p.size()) +
                   " grain=" + std::to_string(grain));
      SubhaloConfig pooled = cfg;
      pooled.backend = dpp::Backend::ThreadPool;
      pooled.density_grain = grain;
      EXPECT_EQ(local_densities(p, members, pooled), rho_ref);
      const auto got = find_subhalos(p, members, pooled);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t s = 0; s < ref.size(); ++s) {
        EXPECT_EQ(got[s].members, ref[s].members) << "subhalo " << s;
        EXPECT_EQ(got[s].peak_density, ref[s].peak_density) << "subhalo " << s;
      }
    }
  }
}

TEST(ParallelMergerTree, LinksBackendInvariant) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 61);
  FofConfig cfg;
  cfg.linking_length = 0.3;
  cfg.min_size = 40;
  const auto halos0 = fof_find(p, Periodicity::all(box), cfg);
  ASSERT_GT(halos0.size(), 3u);
  // Step 1: drift every particle slightly — halos persist, ids shift.
  ParticleSet q = p;
  Rng rng(62);
  for (std::size_t i = 0; i < q.size(); ++i)
    q.x[i] = static_cast<float>(q.x[i] + rng.uniform(-0.02, 0.02));
  const auto halos1 = fof_find(q, Periodicity::all(box), cfg);

  auto tracked = [](const ParticleSet& ps, const std::vector<FofHalo>& hs) {
    std::vector<stats::TrackedHalo> out;
    for (const auto& h : hs) {
      stats::TrackedHalo t;
      t.id = h.id;
      for (const auto m : h.members) t.tags.push_back(ps.tag[m]);
      out.push_back(std::move(t));
    }
    return out;
  };

  auto build_links = [&](dpp::Backend backend) {
    stats::MergerTreeBuilder b;
    b.add_snapshot(0, tracked(p, halos0));
    b.add_snapshot(1, tracked(q, halos1));
    b.build(backend);
    std::vector<std::tuple<std::size_t, std::int64_t, std::int64_t,
                           std::size_t>>
        out;
    for (const auto& l : b.links())
      out.emplace_back(l.step, l.progenitor, l.descendant,
                       l.shared_particles);
    return out;
  };

  const auto serial = build_links(dpp::Backend::Serial);
  ASSERT_GT(serial.size(), 2u);
  EXPECT_EQ(build_links(dpp::Backend::ThreadPool), serial);
}

}  // namespace
