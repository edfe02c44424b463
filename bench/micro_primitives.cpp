// google-benchmark microbenchmarks for the substrate layers: data-parallel
// primitives on both backends (the PISTON portability claim), FFTs, k-d
// tree construction, and FOF — the kernels whose costs drive every
// workflow-level number in Tables 2–4.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numeric>

#include "dpp/primitives.h"
#include "dpp/thread_pool.h"
#include "fft/fft.h"
#include "halo/center_finder.h"
#include "halo/fof.h"
#include "halo/kdtree.h"
#include "sim/particles.h"
#include "util/rng.h"

using namespace cosmo;

namespace {

sim::ParticleSet clustered(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  sim::ParticleSet p;
  const std::size_t blobs = 1 + n / 500;
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<double>(i % blobs);
    const double cx = 2.0 + std::fmod(b * 3.7, 28.0);
    const double cy = 2.0 + std::fmod(b * 7.1, 28.0);
    const double cz = 2.0 + std::fmod(b * 5.3, 28.0);
    p.push_back(static_cast<float>(rng.normal(cx, 0.2)),
                static_cast<float>(rng.normal(cy, 0.2)),
                static_cast<float>(rng.normal(cz, 0.2)), 0, 0, 0,
                static_cast<std::int64_t>(i));
  }
  return p;
}

void BM_Reduce(benchmark::State& state) {
  const auto backend = static_cast<dpp::Backend>(state.range(0));
  std::vector<double> v(static_cast<std::size_t>(state.range(1)));
  Rng rng(1);
  for (auto& x : v) x = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpp::reduce<double>(backend, v));
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_Reduce)
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Args({0, 1 << 20})
    ->Args({1, 1 << 20});

void BM_ExclusiveScan(benchmark::State& state) {
  const auto backend = static_cast<dpp::Backend>(state.range(0));
  std::vector<std::uint64_t> v(static_cast<std::size_t>(state.range(1)), 3),
      out(v.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpp::exclusive_scan<std::uint64_t>(backend, v, out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_ExclusiveScan)
    ->Args({0, 1 << 18})
    ->Args({1, 1 << 18});

void BM_SortIndices(benchmark::State& state) {
  const auto backend = static_cast<dpp::Backend>(state.range(0));
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(state.range(1)));
  Rng rng(2);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng());
  std::vector<std::uint32_t> idx;
  for (auto _ : state) {
    dpp::sort_indices_by_key<std::uint32_t>(backend, keys, idx);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_SortIndices)->Args({0, 1 << 16})->Args({1, 1 << 16});

void BM_Fft3dLocal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  fft::Grid3 g(n, n, n);
  Rng rng(3);
  for (auto& c : g.flat()) c = fft::Complex(rng.normal(), 0.0);
  for (auto _ : state) {
    fft::fft_3d(g, false);
    fft::fft_3d(g, true);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n * n * n));
}
BENCHMARK(BM_Fft3dLocal)->Arg(16)->Arg(32);

void BM_KdTreeBuild(benchmark::State& state) {
  auto p = clustered(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    auto tree = halo::KdTree::over_all(p);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->Arg(10000)->Arg(50000);

void BM_FofKdTree(benchmark::State& state) {
  auto p = clustered(static_cast<std::size_t>(state.range(0)), 5);
  halo::FofConfig cfg;
  cfg.linking_length = 0.25;
  cfg.min_size = 20;
  for (auto _ : state) {
    auto halos = halo::fof_find(p, halo::Periodicity::all(32.0), cfg);
    benchmark::DoNotOptimize(halos.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FofKdTree)->Arg(5000)->Arg(20000);

void BM_FofBruteForce(benchmark::State& state) {
  auto p = clustered(static_cast<std::size_t>(state.range(0)), 5);
  halo::FofConfig cfg;
  cfg.linking_length = 0.25;
  cfg.min_size = 20;
  for (auto _ : state) {
    auto halos = halo::fof_brute_force(p, halo::Periodicity::all(32.0), cfg);
    benchmark::DoNotOptimize(halos.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FofBruteForce)->Arg(5000);

void BM_CenterBrute(benchmark::State& state) {
  const auto backend = static_cast<dpp::Backend>(state.range(0));
  auto p = clustered(static_cast<std::size_t>(state.range(1)), 6);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  for (auto _ : state) {
    auto r = halo::mbp_center_brute(backend, p, members, {});
    benchmark::DoNotOptimize(r.particle);
  }
}
BENCHMARK(BM_CenterBrute)->Args({0, 3000})->Args({1, 3000});

// --- Scheduler microbenchmarks (work-stealing dispatch path) ------------
//
// A few sqrt's per item: heavy enough that the dispatch isn't pure
// overhead, light enough that chunk-claim cost shows up if the grain is
// mis-set.
double item_work(std::size_t i) {
  double acc = static_cast<double>(i & 0xff) * 1e-3;
  for (int r = 0; r < 8; ++r) acc = std::sqrt(acc + 1.0 + static_cast<double>(r));
  return acc;
}

/// Grain sweep on a fixed dispatch: range(0) = grain (0 = auto). Shows the
/// tradeoff between chunk-claim overhead (tiny grain) and lost balancing
/// slack (huge grain).
void BM_DispatchGrain(benchmark::State& state) {
  constexpr std::size_t kN = 1 << 16;
  std::vector<double> out(kN);
  const auto grain = static_cast<std::size_t>(state.range(0));
  auto& pool = dpp::ThreadPool::instance();
  for (auto _ : state) {
    pool.parallel_for(
        kN,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) out[i] = item_work(i);
        },
        grain);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kN));
}
BENCHMARK(BM_DispatchGrain)
    ->Arg(0)  // auto (32 chunks per worker)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(1 << 16);  // single chunk == inline run

/// Concurrent dispatch: each benchmark thread issues its own parallel_for
/// against the shared pool, the co-scheduling pattern of SPMD analysis
/// ranks. Under the old single-job scheduler these serialized on the
/// dispatch lock; under work stealing they share the workers chunk-wise.
void BM_ConcurrentDispatch(benchmark::State& state) {
  constexpr std::size_t kN = 1 << 14;
  std::vector<double> out(kN);
  auto& pool = dpp::ThreadPool::instance();
  for (auto _ : state) {
    pool.parallel_for(kN, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) out[i] = item_work(i);
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kN));
}
BENCHMARK(BM_ConcurrentDispatch)->Threads(1)->Threads(2)->Threads(4);

/// Nested dispatch: an outer grain-1 parallel_for whose items each issue an
/// inner parallel_for (deadlock under the old scheduler; help-execution
/// makes it safe and cheap now).
void BM_NestedDispatch(benchmark::State& state) {
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 1 << 12;
  std::vector<double> out(kOuter * kInner);
  auto& pool = dpp::ThreadPool::instance();
  for (auto _ : state) {
    pool.parallel_for(
        kOuter,
        [&](std::size_t olo, std::size_t ohi) {
          for (std::size_t o = olo; o < ohi; ++o) {
            pool.parallel_for(kInner, [&, o](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i)
                out[o * kInner + i] = item_work(i);
            });
          }
        },
        /*grain=*/1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kOuter * kInner));
}
BENCHMARK(BM_NestedDispatch);

void BM_KNearest(benchmark::State& state) {
  auto p = clustered(20000, 7);
  auto tree = halo::KdTree::over_all(p);
  Rng rng(8);
  for (auto _ : state) {
    auto nn = tree.k_nearest(rng.uniform(0, 32), rng.uniform(0, 32),
                             rng.uniform(0, 32), 20);
    benchmark::DoNotOptimize(nn.size());
  }
}
BENCHMARK(BM_KNearest);

}  // namespace

BENCHMARK_MAIN();
