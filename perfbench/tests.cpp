// Tests of the benchmark itself: the statistics and span rollup on inputs
// with known answers, the catalog gate, and that the exact counts repeat
// between two same-seed runs of every workload.
//
//   python3 perfbench/run.py --test
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <filesystem>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

cosmo::obs::Span span(const char* name, double start_us, double end_us,
                      int tid, int rank, int depth) {
  cosmo::obs::Span s;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  s.tid = tid;
  s.rank = rank;
  s.depth = depth;
  return s;
}

constexpr double kUs = 1e-6;

/// Scratch directory: run.py points PERFBENCH_WORKDIR into the build root.
std::filesystem::path test_dir(const std::string& name) {
  const char* root = std::getenv("PERFBENCH_WORKDIR");
  return std::filesystem::path(root ? root : "perfbench_test_work") /
         (name + "." + std::to_string(::getpid()));
}

}  // namespace

TEST(Stats, MedianAndTail) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 240; ++i) v.push_back(i);
  // 240 samples: p95 is rank 228 with 12 beyond; p99 would leave 2.
  const auto t = tail_of(v, 240);
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 228.0);
  EXPECT_EQ(t.beyond, 12u);
  // The rung follows the floor, not the actual count.
  const auto t40 = tail_of(v, 40);
  EXPECT_DOUBLE_EQ(t40.percentile, 75.0);
  EXPECT_DOUBLE_EQ(t40.value, 180.0);
  EXPECT_EQ(t40.beyond, 60u);
}

TEST(Rollup, SelfUnionAndPerRankOnKnownNesting) {
  const std::vector<cosmo::obs::Span> spans = {
      // rank 0 thread: wall 100, two children, two grandchildren
      span("spmd.rank", 0, 100, 0, 0, 0),
      span("sim.step", 10, 60, 0, 0, 1),
      span("sim.deposit", 15, 25, 0, 0, 2),
      span("fft.rows", 30, 40, 0, 0, 2),
      span("sim.accel", 70, 90, 0, 0, 1),
      // rank 1 thread: wall 80; its fft.rows overlaps rank 0's
      span("spmd.rank", 0, 80, 1, 1, 0),
      span("fft.rows", 35, 50, 1, 1, 1),
      span("sim.step", 50, 70, 1, 1, 1),
      // pool worker, no rank; parent and child start at the same instant
      span("halo.fof", 5, 15, 2, -1, 0),
      span("halo.tree", 5, 9, 2, -1, 1),
  };
  const auto r = rollup(spans, 0.0);
  auto self = [&](const char* name, int rank) {
    return r.self_by_rank.at({name, rank});
  };
  EXPECT_NEAR(self("spmd.rank", 0), 30 * kUs, 1e-12);
  EXPECT_NEAR(self("spmd.rank", 1), 45 * kUs, 1e-12);
  EXPECT_NEAR(self("sim.step", 0), 30 * kUs, 1e-12);
  EXPECT_NEAR(self("sim.step", 1), 20 * kUs, 1e-12);
  EXPECT_NEAR(self("sim.deposit", 0), 10 * kUs, 1e-12);
  EXPECT_NEAR(self("fft.rows", 0), 10 * kUs, 1e-12);
  EXPECT_NEAR(self("fft.rows", 1), 15 * kUs, 1e-12);
  EXPECT_NEAR(self("sim.accel", 0), 20 * kUs, 1e-12);
  EXPECT_NEAR(self("halo.fof", -1), 6 * kUs, 1e-12);
  EXPECT_NEAR(self("halo.tree", -1), 4 * kUs, 1e-12);
  EXPECT_NEAR(r.total_by_rank.at({"sim.step", 0}), 50 * kUs, 1e-12);
  EXPECT_NEAR(r.wall_union("fft.rows"), 20 * kUs, 1e-12);
  EXPECT_NEAR(r.wall_union("sim.step"), 60 * kUs, 1e-12);
  EXPECT_NEAR(r.wall_union("spmd.rank"), 100 * kUs, 1e-12);
  EXPECT_NEAR(r.max_rank("sim.step"), 30 * kUs, 1e-12);
  EXPECT_NEAR(r.min_rank("sim.step"), 20 * kUs, 1e-12);
  EXPECT_NEAR(r.max_rank("sim.step", true), 50 * kUs, 1e-12);
  // Rank-less spans never count as a rank.
  EXPECT_NEAR(r.max_rank("halo.fof"), 0.0, 1e-12);
  EXPECT_EQ(r.count.at("fft.rows"), 2u);
  // Invariant: Σ self below the wall is 70/100 on rank 0, 35/80 on rank 1.
  EXPECT_EQ(r.rank_threads, 2u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_NEAR(r.worst_ratio, 0.7, 1e-12);
}

TEST(Rollup, InvariantCatchesOverlappingSiblings) {
  // Two spans at one depth that overlap cannot come from one thread's
  // nesting; their self times exceed the wall.
  const std::vector<cosmo::obs::Span> spans = {
      span("spmd.rank", 0, 10, 0, 0, 0),
      span("a", 0, 8, 0, 0, 1),
      span("b", 2, 10, 0, 0, 1),
  };
  const auto r = rollup(spans, 0.0);
  EXPECT_EQ(r.invariant_violations, 1u);
  EXPECT_GT(r.worst_ratio, 1.0);
}

TEST(Rollup, ThreadWithoutWallSpanUsesFallback) {
  const std::vector<cosmo::obs::Span> spans = {
      span("sim.step", 0, 40, 0, 2, 0),
      span("sim.solve", 10, 30, 0, 2, 1),
  };
  const auto r = rollup(spans, 50 * kUs);
  EXPECT_EQ(r.rank_threads, 1u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_NEAR(r.worst_ratio, 40.0 / 50.0, 1e-12);
}

TEST(RunUnits, ThrowingRankReleasesTheOthers) {
  // Rank 2 throws in the third unit, after the unit's last collective; the
  // others must not wait for it at the next boundary.
  int boundaries = 0;
  std::atomic<int> units{0};
  EXPECT_THROW(run_units(
                   4,
                   [&] {
                     ++boundaries;
                     return true;
                   },
                   [&](cosmo::comm::Comm& c, auto&& next) {
                     while (next()) {
                       c.barrier();
                       ++units;
                       if (c.rank() == 2 && boundaries == 3)
                         throw std::runtime_error("injected");
                     }
                   }),
               std::runtime_error);
  // The failed boundary ends the world without asking for another unit.
  EXPECT_EQ(boundaries, 3);
  EXPECT_EQ(units.load(), 12);
}

TEST(RunUnits, BoundaryEndsTheWorld) {
  int boundaries = 0, units = 0;
  run_units(
      2, [&] { return ++boundaries < 4; },
      [&](cosmo::comm::Comm& c, auto&& next) {
        while (next())
          if (c.rank() == 0) ++units;
      });
  EXPECT_EQ(boundaries, 4);
  EXPECT_EQ(units, 3);
}

class Workloads : public ::testing::TestWithParam<const char*> {};

TEST_P(Workloads, ExactCountsRepeatAndCatalogsMatchReference) {
  const std::string name = GetParam();
  const auto dir = test_dir(name);
  auto once = [&] {
    auto w = make_workload(name, 7, dir);
    // One unit more than a cycle of inputs, so counts are also compared
    // between two units of one run that ran the same input.
    const std::size_t iters = name == "pm_sim" ? 13 : kInputs + 1;
    auto rep = w->run(1, {{0.0, false, iters}});
    w->check(rep);
    EXPECT_EQ(rep.mismatches, 0u);
    EXPECT_EQ(rep.checked, rep.phases[0].snapshots);
    EXPECT_TRUE(rep.shape_errors.empty())
        << rep.shape_errors.size() << " shape errors, first: "
        << (rep.shape_errors.empty() ? "" : rep.shape_errors.front());
    return rep;
  };
  const auto a = once();
  const auto b = once();
  std::filesystem::remove_all(dir);
  const auto& ua = a.phases[0].unit_counts;
  const auto& ub = b.phases[0].unit_counts;
  ASSERT_GT(ua.size(), a.cycle);
  ASSERT_FALSE(ub.empty());
  EXPECT_EQ(ua[0], ua[a.cycle]) << "counts differ between units of one run";
  EXPECT_EQ(ua[0], ub[0]) << "counts differ between same-seed runs";
  EXPECT_GT(ua[0].at("comm.msgs"), 0u);
  EXPECT_GT(ua[0].at("halo.halos"), 0u);
}

INSTANTIATE_TEST_SUITE_P(All, Workloads,
                         ::testing::Values("pm_sim", "insitu_tail",
                                           "cosched_campaign"));

TEST(Gate, CatalogMismatchIsCounted) {
  const auto dir = test_dir("gate");
  auto w = make_workload("insitu_tail", 7, dir);
  auto rep = w->run(1, {{0.0, false, 2}});
  rep.phases[0].unit_crcs[1][0] ^= 1u;
  w->check(rep);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(rep.checked, 2u);
  EXPECT_EQ(rep.mismatches, 1u);
}
