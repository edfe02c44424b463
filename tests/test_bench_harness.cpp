// bench_common's Scenario runner: the statistics, the bit-identity gate and
// the JSON every ablation/table bench writes through it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dpp/primitives.h"
#include "json_parser.h"

using bench_common::Runner;
using bench_common::Sample;

namespace {

std::filesystem::path scratch_json(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("cosmoflow_harness_" + tag + "_" + std::to_string(::getpid()) +
          ".json");
}

TEST(BenchHarness, SummarizeGivesMedianMinMax) {
  const auto odd = bench_common::summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.median, 2.0);
  EXPECT_DOUBLE_EQ(odd.min, 1.0);
  EXPECT_DOUBLE_EQ(odd.max, 3.0);
  const auto even = bench_common::summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.min, 1.0);
  EXPECT_DOUBLE_EQ(even.max, 4.0);
}

TEST(BenchHarness, ScenarioAggregatesEveryRepeat) {
  Runner runner("unit", 3);
  const double secs[] = {0.3, 0.1, 0.2};
  const auto s = runner.run("a", [&](int rep) {
    return Sample{secs[rep], 7u, {{"items", 10.0 * (rep + 1)}}};
  });
  ASSERT_EQ(s.repeats.size(), 3u);
  EXPECT_DOUBLE_EQ(s.seconds().median, 0.2);
  EXPECT_DOUBLE_EQ(s.seconds().min, 0.1);
  EXPECT_DOUBLE_EQ(s.seconds().max, 0.3);
  EXPECT_DOUBLE_EQ(s.field("items").median, 20.0);
  EXPECT_DOUBLE_EQ(s.field("items").max, 30.0);
  EXPECT_TRUE(runner.identical());
  EXPECT_EQ(runner.crc(), 7u);
  EXPECT_EQ(runner.finish(scratch_json("pass")), 0);
  std::filesystem::remove(scratch_json("pass"));
}

TEST(BenchHarness, CrcChangeOnOneRepeatFailsTheGate) {
  Runner runner("unit", 4);
  runner.run("flaky",
             [](int rep) { return Sample{0.1, rep == 2 ? 2u : 1u, {}}; });
  EXPECT_FALSE(runner.identical());
  EXPECT_EQ(runner.first_mismatch(), "flaky repeat 2");
  EXPECT_NE(runner.finish(scratch_json("flaky")), 0);
  std::filesystem::remove(scratch_json("flaky"));
}

TEST(BenchHarness, ScenariosWithDifferentCrcsFailTheGate) {
  Runner runner("unit", 2);
  runner.run("serial", [](int) { return Sample{0.1, 5u, {}}; });
  runner.run("pooled", [](int) { return Sample{0.1, 6u, {}}; });
  EXPECT_FALSE(runner.identical());
  EXPECT_EQ(runner.first_mismatch(), "pooled repeat 0");
  EXPECT_NE(runner.finish(scratch_json("split")), 0);
  std::filesystem::remove(scratch_json("split"));
}

TEST(BenchHarness, JsonParsesAndRecordsTheHost) {
  Runner runner("unit", 2);
  runner.run("a", [](int rep) {
    return Sample{0.5 + rep, 0xd930db70u, {{"fof_s", 0.25}, {"halos", 50.0}}};
  });
  runner.run("b", [](int) { return Sample{1.0, 0xd930db70u, {}}; });
  std::ostringstream os;
  runner.write_json(os);
  const std::string text = os.str();

  json::Parser p(text);
  EXPECT_TRUE(p.parse_document()) << "invalid JSON near offset " << p.i;
  for (const char* key :
       {"\"bench\": \"unit\"", "\"host_threads\"", "\"pool_workers\"",
        "\"build_type\"", "\"reps\": 2", "\"output_crc32\": \"d930db70\"",
        "\"output_identical\": true", "\"scenarios\"", "\"scenario\": \"b\"",
        "\"seconds\": {\"median\": 1", "\"fof_s\": {\"median\": 0.25",
        "\"repeats\""})
    EXPECT_NE(text.find(key), std::string::npos) << key << "\n" << text;
}

TEST(BenchHarness, CatalogCrcIsOrderIndependentAndSeesEveryField) {
  cosmo::stats::HaloCatalog c(3);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i].id = static_cast<std::int64_t>(10 - i);
    c[i].count = 100 + i;
    c[i].cx = static_cast<float>(i);
  }
  const auto crc = bench_common::catalog_crc(c);
  auto reversed = c;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(bench_common::catalog_crc(reversed), crc);
  c[1].so_mass = 1.0f;
  EXPECT_NE(bench_common::catalog_crc(c), crc);
}

TEST(BenchHarness, AnalysisDriversShareThePoolAndJoin) {
  std::vector<double> v(1 << 16);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 97);
  const double serial = cosmo::dpp::reduce<double>(cosmo::dpp::Backend::Serial, v);
  {
    bench_common::AnalysisDrivers drivers(2);
    EXPECT_EQ(cosmo::dpp::reduce<double>(cosmo::dpp::Backend::ThreadPool, v),
              serial);
  }  // the destructor stops and joins both drivers
}

}  // namespace
