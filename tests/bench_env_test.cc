// Strict parsing of the NTRACE_* bench knobs (bench/bench_common.h). A
// typo'd knob must warn and fall back to the default -- never be silently
// truncated (atoi-style "5x" -> 5) or silently scanned apart ("2x8" ->
// {2, 8}) into a run whose recorded numbers look legitimate.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"

// The alloc-hook storage bench_common.h declares; tests use the stock
// allocator, so the counter just needs to exist.
namespace ntrace {
std::atomic<size_t> g_bench_alloc_count{0};
}

namespace ntrace {
namespace {

constexpr char kVar[] = "NTRACE_TEST_ENV_KNOB";

class BenchEnvTest : public testing::Test {
 protected:
  void TearDown() override { unsetenv(kVar); }
  void Set(const char* value) { setenv(kVar, value, /*overwrite=*/1); }
};

TEST_F(BenchEnvTest, DoubleParsesCleanValues) {
  Set("0.25");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 0.25);
  Set("3");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 3.0);
  Set("-1.5e2");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), -150.0);
}

TEST_F(BenchEnvTest, DoubleRejectsTrailingGarbage) {
  Set("0..5");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 1.0);
  Set("0.5x");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 1.0);
  Set("fast");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 1.0);
}

TEST_F(BenchEnvTest, DoubleUnsetAndEmptyFallBackSilently) {
  unsetenv(kVar);
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 2.0), 2.0);
  Set("");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 2.0), 2.0);
}

TEST_F(BenchEnvTest, U64KeepsFullPrecision) {
  // 2^53 + 1: round-trips through strtoull exactly; a double would eat it.
  Set("9007199254740993");
  EXPECT_EQ(EnvU64(kVar, 0), 9007199254740993ULL);
}

TEST_F(BenchEnvTest, U64RejectsGarbageAndNegatives) {
  Set("1999x");
  EXPECT_EQ(EnvU64(kVar, 7), 7u);
  Set("-3");
  EXPECT_EQ(EnvU64(kVar, 7), 7u);
  Set("12 34");
  EXPECT_EQ(EnvU64(kVar, 7), 7u);
}

TEST_F(BenchEnvTest, IntParsesAndBoundsChecks) {
  Set("5");
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 5);
  Set("0");  // Below the minimum.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
  Set("1001");  // Above the maximum.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
  Set("5x");  // atoi would have said 5.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
  Set("abc");  // atoi would have said 0.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
}

TEST_F(BenchEnvTest, IntListParsesCleanSweep) {
  Set("1,2,8");
  EXPECT_EQ(EnvIntList(kVar, {}), (std::vector<int>{1, 2, 8}));
  Set("4");
  EXPECT_EQ(EnvIntList(kVar, {}), (std::vector<int>{4}));
}

TEST_F(BenchEnvTest, IntListRejectsTheWholeValueOnOneBadElement) {
  const std::vector<int> fallback = {1, 2};
  Set("2x8");  // The old digit scan read this as {2, 8}.
  EXPECT_EQ(EnvIntList(kVar, fallback), fallback);
  Set("1,,2");
  EXPECT_EQ(EnvIntList(kVar, fallback), fallback);
  Set("1,2,");
  EXPECT_EQ(EnvIntList(kVar, fallback), fallback);
  Set("1;2");
  EXPECT_EQ(EnvIntList(kVar, fallback), fallback);
  Set("0,2");  // Zero threads is not a sweep point.
  EXPECT_EQ(EnvIntList(kVar, fallback), fallback);
  Set("-1,2");
  EXPECT_EQ(EnvIntList(kVar, fallback), fallback);
}

TEST_F(BenchEnvTest, IntListUnsetFallsBackSilently) {
  unsetenv(kVar);
  EXPECT_EQ(EnvIntList(kVar, {1, 2, 4}), (std::vector<int>{1, 2, 4}));
}

// StandardConfig() reads the real knob names, so these tests set them and
// put back whatever the caller's environment held. No fleet is run: the
// checks read the returned config.
class StandardConfigEnvTest : public testing::Test {
 protected:
  static constexpr const char* kKnobs[] = {"NTRACE_DAYS", "NTRACE_THREADS"};

  void SetUp() override {
    for (const char* knob : kKnobs) {
      const char* v = std::getenv(knob);
      saved_.push_back(v == nullptr ? std::nullopt : std::optional<std::string>(v));
      unsetenv(knob);
    }
  }
  void TearDown() override {
    for (size_t i = 0; i < saved_.size(); ++i) {
      if (saved_[i]) {
        setenv(kKnobs[i], saved_[i]->c_str(), /*overwrite=*/1);
      } else {
        unsetenv(kKnobs[i]);
      }
    }
  }

  // StandardConfig() under `knob=value`, plus what it wrote to stderr.
  static StudyConfig ConfigWith(const char* knob, const char* value, std::string* warning) {
    setenv(knob, value, /*overwrite=*/1);
    testing::internal::CaptureStderr();
    StudyConfig config = StandardConfig();
    *warning = testing::internal::GetCapturedStderr();
    return config;
  }

 private:
  std::vector<std::optional<std::string>> saved_;
};

TEST_F(StandardConfigEnvTest, FractionalZeroAndHugeDaysWarnAndRunOneDay) {
  std::string warning;
  EXPECT_EQ(ConfigWith("NTRACE_DAYS", "3", &warning).fleet.days, 3);
  EXPECT_EQ(warning.find("NTRACE_DAYS"), std::string::npos);
  // "0.5" used to truncate to a 0-day study that exited 0 on boot-time
  // records alone; a value above INT_MAX was undefined behaviour.
  for (const char* value : {"0.5", "1.5", "0", "-2", "2147483648", "99999999999999999999"}) {
    EXPECT_EQ(ConfigWith("NTRACE_DAYS", value, &warning).fleet.days, 1) << value;
    EXPECT_NE(warning.find("NTRACE_DAYS"), std::string::npos) << value;
  }
}

TEST_F(StandardConfigEnvTest, ThreadsOutOfRangeWarnAndUseAllCores) {
  std::string warning;
  EXPECT_EQ(ConfigWith("NTRACE_THREADS", "8", &warning).fleet.threads, 8);
  EXPECT_EQ(warning.find("NTRACE_THREADS"), std::string::npos);
  for (const char* value : {"4097", "4294967297", "-1", "2.5"}) {
    EXPECT_EQ(ConfigWith("NTRACE_THREADS", value, &warning).fleet.threads, 0) << value;
    EXPECT_NE(warning.find("NTRACE_THREADS"), std::string::npos) << value;
  }
}

}  // namespace
}  // namespace ntrace
