// Tests for the FFT stack: 1-D analytic transforms, 3-D round trips,
// Parseval's theorem, and distributed-vs-local equivalence.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <complex>
#include <numbers>
#include <thread>
#include <vector>

#include "comm/comm.h"
#include "dpp/primitives.h"
#include "fft/distributed_fft.h"
#include "fft/fft.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using fft::Complex;

TEST(Fft1d, DeltaTransformsToConstant) {
  std::vector<Complex> v(16, Complex(0, 0));
  v[0] = Complex(1, 0);
  fft::fft_1d(v, false);
  for (const auto& c : v) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, ConstantTransformsToDelta) {
  std::vector<Complex> v(32, Complex(2.0, 0));
  fft::fft_1d(v, false);
  EXPECT_NEAR(v[0].real(), 64.0, 1e-10);
  for (std::size_t i = 1; i < v.size(); ++i)
    EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-10);
}

TEST(Fft1d, SingleModeLandsInSingleBin) {
  const std::size_t n = 64;
  const std::size_t k = 5;
  std::vector<Complex> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(k * i) /
                         static_cast<double>(n);
    v[i] = Complex(std::cos(phase), std::sin(phase));
  }
  fft::fft_1d(v, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == k)
      EXPECT_NEAR(v[i].real(), static_cast<double>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-9) << "bin " << i;
  }
}

TEST(Fft1d, RoundTripRecoversInput) {
  Rng rng(3);
  std::vector<Complex> v(256), orig;
  for (auto& c : v) c = Complex(rng.normal(), rng.normal());
  orig = v;
  fft::fft_1d(v, false);
  fft::fft_1d(v, true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real() / 256.0, orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag() / 256.0, orig[i].imag(), 1e-10);
  }
}

TEST(Fft1d, ParsevalHolds) {
  Rng rng(4);
  const std::size_t n = 512;
  std::vector<Complex> v(n);
  double time_energy = 0.0;
  for (auto& c : v) {
    c = Complex(rng.normal(), rng.normal());
    time_energy += std::norm(c);
  }
  fft::fft_1d(v, false);
  double freq_energy = 0.0;
  for (const auto& c : v) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

TEST(Fft1d, RejectsNonPowerOfTwo) {
  std::vector<Complex> v(12);
  EXPECT_THROW(fft::fft_1d(v, false), Error);
}

TEST(Fft1d, LengthOneIsIdentity) {
  std::vector<Complex> v{Complex(3.5, -1.25)};
  fft::fft_1d(v, false);
  EXPECT_DOUBLE_EQ(v[0].real(), 3.5);
  EXPECT_DOUBLE_EQ(v[0].imag(), -1.25);
}

TEST(FreqIndex, SignedFrequencies) {
  EXPECT_EQ(fft::freq_index(0, 8), 0);
  EXPECT_EQ(fft::freq_index(3, 8), 3);
  EXPECT_EQ(fft::freq_index(4, 8), 4);   // Nyquist stays positive
  EXPECT_EQ(fft::freq_index(5, 8), -3);
  EXPECT_EQ(fft::freq_index(7, 8), -1);
}

TEST(Fft3d, RoundTripRecoversInput) {
  Rng rng(5);
  fft::Grid3 g(8, 8, 8);
  std::vector<Complex> orig(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.flat()[i] = Complex(rng.normal(), rng.normal());
    orig[i] = g.flat()[i];
  }
  fft::fft_3d(g, false);
  fft::fft_3d(g, true);
  const double scale = 1.0 / 512.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(g.flat()[i].real() * scale, orig[i].real(), 1e-10);
    EXPECT_NEAR(g.flat()[i].imag() * scale, orig[i].imag(), 1e-10);
  }
}

TEST(Fft3d, PlaneWaveSingleMode) {
  const std::size_t n = 8;
  fft::Grid3 g(n, n, n);
  const std::size_t kx = 2, ky = 1, kz = 3;
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x) {
        const double phase = 2.0 * std::numbers::pi *
                             static_cast<double>(kx * x + ky * y + kz * z) /
                             static_cast<double>(n);
        g.at(x, y, z) = Complex(std::cos(phase), std::sin(phase));
      }
  fft::fft_3d(g, false);
  const double total = static_cast<double>(n * n * n);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x) {
        const double expect = (x == kx && y == ky && z == kz) ? total : 0.0;
        ASSERT_NEAR(std::abs(g.at(x, y, z)), expect, 1e-8)
            << x << "," << y << "," << z;
      }
}

class DistFft : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, DistFft, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(DistFft, MatchesLocalTransform) {
  const int P = GetParam();
  const std::size_t n = 8;
  // Build the same random field locally and distributed; compare spectra.
  Rng rng(17);
  fft::Grid3 local(n, n, n);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x)
        local.at(x, y, z) = Complex(rng.normal(), rng.normal());
  fft::Grid3 reference = local;
  fft::fft_3d(reference, false);

  comm::run_spmd(P, [&](comm::Comm& c) {
    fft::DistributedFft dfft(c, n);
    const std::size_t nzl = dfft.slab_thickness();
    const std::size_t z0 = dfft.slab_start();
    std::vector<Complex> slab(dfft.local_size());
    for (std::size_t zl = 0; zl < nzl; ++zl)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          slab[(zl * n + y) * n + x] = local.at(x, y, z0 + zl);
    dfft.forward(slab);
    // Transposed layout: rank owns ky rows [y0, y0+nzl), kz contiguous.
    for (std::size_t kyl = 0; kyl < nzl; ++kyl)
      for (std::size_t kx = 0; kx < n; ++kx)
        for (std::size_t kz = 0; kz < n; ++kz) {
          const Complex got = slab[(kyl * n + kx) * n + kz];
          const Complex want = reference.at(kx, z0 + kyl, kz);
          ASSERT_EQ(got.real(), want.real());
          ASSERT_EQ(got.imag(), want.imag());
        }
  });
}

TEST_P(DistFft, RoundTripRecoversSlab) {
  const int P = GetParam();
  const std::size_t n = 16;
  comm::run_spmd(P, [&](comm::Comm& c) {
    fft::DistributedFft dfft(c, n);
    Rng rng(100 + static_cast<std::uint64_t>(c.rank()));
    std::vector<Complex> slab(dfft.local_size()), orig;
    for (auto& v : slab) v = Complex(rng.normal(), rng.normal());
    orig = slab;
    dfft.forward(slab);
    dfft.inverse(slab);
    for (std::size_t i = 0; i < slab.size(); ++i) {
      ASSERT_NEAR(slab[i].real(), orig[i].real(), 1e-9);
      ASSERT_NEAR(slab[i].imag(), orig[i].imag(), 1e-9);
    }
  });
}

// Runs forward+inverse with the given backend / grains and returns the
// k-space slab and round-tripped slab of every rank, starting from one
// deterministic global field.
struct FftVariantResult {
  std::vector<Complex> kspace;
  std::vector<Complex> roundtrip;
};

fft::Grid3 random_field(std::size_t n) {
  Rng rng(7000);
  fft::Grid3 g(n, n, n);
  for (auto& v : g.flat()) v = Complex(rng.normal(), rng.normal());
  return g;
}

std::vector<FftVariantResult> run_fft_variant(int P, std::size_t n,
                                              dpp::Backend backend,
                                              std::size_t row_grain = 0,
                                              std::size_t copy_grain = 0,
                                              bool stagger = false) {
  const fft::Grid3 field = random_field(n);
  std::vector<FftVariantResult> results(static_cast<std::size_t>(P));
  comm::run_spmd(P, [&](comm::Comm& c) {
    if (stagger)  // adversarial: ranks enter the transpose far apart
      std::this_thread::sleep_for(
          std::chrono::milliseconds(3 * (P - 1 - c.rank())));
    fft::DistributedFft dfft(c, n);
    dfft.set_backend(backend);
    dfft.set_row_grain(row_grain);
    dfft.set_copy_grain(copy_grain);
    const std::size_t z0 = dfft.slab_start();
    std::vector<Complex> slab(dfft.local_size());
    for (std::size_t zl = 0; zl < dfft.slab_thickness(); ++zl)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          slab[(zl * n + y) * n + x] = field.at(x, y, z0 + zl);
    dfft.forward(slab);
    auto& res = results[static_cast<std::size_t>(c.rank())];
    res.kspace = slab;
    dfft.inverse(slab);
    res.roundtrip = slab;
  });
  return results;
}

// Exact double equality throughout: neither the pool backends nor the
// transposes may perturb a single bit relative to the serial references.

/// Every rank's transposed k-space slab must equal the matching ky rows of
/// the serial fft_3d of the same field.
void expect_kspace_matches_fft3d(const std::vector<FftVariantResult>& got,
                                 std::size_t n) {
  fft::Grid3 ref = random_field(n);
  fft::fft_3d(ref, false);
  const std::size_t nyl = n / got.size();
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].kspace.size(), nyl * n * n);
    for (std::size_t kyl = 0; kyl < nyl; ++kyl)
      for (std::size_t kx = 0; kx < n; ++kx)
        for (std::size_t kz = 0; kz < n; ++kz) {
          const Complex g = got[r].kspace[(kyl * n + kx) * n + kz];
          const Complex w = ref.at(kx, r * nyl + kyl, kz);
          ASSERT_EQ(g.real(), w.real()) << "rank " << r << " k " << kx << ","
                                        << r * nyl + kyl << "," << kz;
          ASSERT_EQ(g.imag(), w.imag()) << "rank " << r << " k " << kx << ","
                                        << r * nyl + kyl << "," << kz;
        }
  }
}

void expect_roundtrip_identical(const std::vector<FftVariantResult>& a,
                                const std::vector<FftVariantResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].roundtrip.size(), b[r].roundtrip.size());
    for (std::size_t i = 0; i < a[r].roundtrip.size(); ++i) {
      ASSERT_EQ(a[r].roundtrip[i].real(), b[r].roundtrip[i].real())
          << "roundtrip rank " << r << " index " << i;
      ASSERT_EQ(a[r].roundtrip[i].imag(), b[r].roundtrip[i].imag())
          << "roundtrip rank " << r << " index " << i;
    }
  }
}

TEST_P(DistFft, BackendsMatchSerialFft3dBitExact) {
  const int P = GetParam();
  const std::size_t n = 16;
  const auto serial = run_fft_variant(P, n, dpp::Backend::Serial);
  const auto pooled = run_fft_variant(P, n, dpp::Backend::ThreadPool);
  expect_kspace_matches_fft3d(serial, n);
  expect_kspace_matches_fft3d(pooled, n);
  expect_roundtrip_identical(serial, pooled);
}

TEST_P(DistFft, SmallGrainsStayBitExact) {
  const int P = GetParam();
  const std::size_t n = 8;
  // Grain 1 maximizes chunk count (every row / pencil its own scheduler
  // item), stressing out-of-order chunk execution in pack/unpack/rows.
  const auto small = run_fft_variant(P, n, dpp::Backend::ThreadPool,
                                     /*row_grain=*/1, /*copy_grain=*/1);
  expect_kspace_matches_fft3d(small, n);
  expect_roundtrip_identical(run_fft_variant(P, n, dpp::Backend::Serial),
                             small);
}

TEST_P(DistFft, StaggeredRanksStayBitExact) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  const std::size_t n = 8;
  // Rank staggering reverses block arrival order relative to rank order;
  // the unpacks are source-addressed, so the result must not move.
  const auto staggered = run_fft_variant(P, n, dpp::Backend::ThreadPool, 0,
                                         0, /*stagger=*/true);
  expect_kspace_matches_fft3d(staggered, n);
  expect_roundtrip_identical(run_fft_variant(P, n, dpp::Backend::Serial),
                             staggered);
}

TEST(DistFftConfig, DefaultsAndSetters) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    fft::DistributedFft dfft(c, 8);
    EXPECT_EQ(dfft.backend(), dpp::Backend::Serial);
    dfft.set_backend(dpp::Backend::ThreadPool);
    dfft.set_row_grain(4);
    dfft.set_copy_grain(2);
    EXPECT_EQ(dfft.backend(), dpp::Backend::ThreadPool);
    EXPECT_EQ(dfft.row_grain(), 4u);
    EXPECT_EQ(dfft.copy_grain(), 2u);
  });
}

TEST(DistFftErrors, RejectsIndivisibleGrid) {
  comm::run_spmd(3, [&](comm::Comm& c) {
    EXPECT_THROW(fft::DistributedFft(c, 8), Error);
  });
}

TEST(DistFftErrors, RejectsWrongSlabSize) {
  comm::run_spmd(2, [&](comm::Comm& c) {
    fft::DistributedFft dfft(c, 8);
    std::vector<Complex> bad(dfft.local_size() - 1);
    EXPECT_THROW(dfft.forward(bad), Error);
  });
}

}  // namespace
