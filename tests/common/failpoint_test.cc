#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace homets {
namespace {

// The registry is process-global; every test starts and ends disarmed.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Global().Reset(); }
  void TearDown() override { Failpoints::Global().Reset(); }
};

TEST_F(FailpointTest, DisarmedByDefault) {
  EXPECT_FALSE(Failpoints::Global().armed());
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvOpen),
            FailpointAction::kNone);
  EXPECT_TRUE(Failpoints::Global().InjectedError(kFailpointCsvOpen).ok());
}

TEST_F(FailpointTest, ConfigureArmsAndResetDisarms) {
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.open=error").ok());
  EXPECT_TRUE(Failpoints::Global().armed());
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvOpen),
            FailpointAction::kError);
  // Sites without a rule never fire.
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvRow),
            FailpointAction::kNone);
  Failpoints::Global().Reset();
  EXPECT_FALSE(Failpoints::Global().armed());
}

TEST_F(FailpointTest, EmptySpecDisarms) {
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.open=error").ok());
  ASSERT_TRUE(Failpoints::Global().Configure("").ok());
  EXPECT_FALSE(Failpoints::Global().armed());
}

TEST_F(FailpointTest, InjectedErrorMapsActions) {
  ASSERT_TRUE(
      Failpoints::Global()
          .Configure("io.csv.open=error;fleet.shard.run=fail")
          .ok());
  const Status io = Failpoints::Global().InjectedError(kFailpointCsvOpen);
  EXPECT_EQ(io.code(), StatusCode::kIoError);
  const Status task =
      Failpoints::Global().InjectedError(kFailpointFleetShardRun);
  EXPECT_EQ(task.code(), StatusCode::kComputeError);
}

TEST_F(FailpointTest, CountModifierLimitsFires) {
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=corrupt*2").ok());
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvRow),
            FailpointAction::kCorrupt);
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvRow),
            FailpointAction::kCorrupt);
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvRow),
            FailpointAction::kNone);
  const FailpointStats stats = Failpoints::Global().stats(kFailpointCsvRow);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.fires, 2u);
}

TEST_F(FailpointTest, StartModifierSkipsEarlyHits) {
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=truncate@3").ok());
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvRow),
            FailpointAction::kNone);
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvRow),
            FailpointAction::kNone);
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvRow),
            FailpointAction::kTruncate);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  const auto firing_pattern = [](uint64_t seed) {
    EXPECT_TRUE(Failpoints::Global()
                    .Configure("fleet.shard.run=fail~0.5", seed)
                    .ok());
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += Failpoints::Global().Evaluate(kFailpointFleetShardRun) ==
                         FailpointAction::kFail
                     ? 'F'
                     : '.';
    }
    return pattern;
  };
  const std::string first = firing_pattern(7);
  const std::string again = firing_pattern(7);
  const std::string other = firing_pattern(8);
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);
  // ~0.5 over 64 draws: both outcomes must appear.
  EXPECT_NE(first.find('F'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
}

TEST_F(FailpointTest, MalformedSpecsRejectedRegistryUnchanged) {
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.open=error").ok());
  for (const char* bad :
       {"io.csv.open", "io.csv.open=explode", "io.csv.open=error*x",
        "io.csv.open=error~1.5", "=error", "io.csv.open=error@",
        "threadpool.task=fail", "engine.pair_block=fail",
        "io.table.print=error"}) {
    EXPECT_EQ(Failpoints::Global().Configure(bad).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  // The pre-error rules are still installed.
  EXPECT_TRUE(Failpoints::Global().armed());
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvOpen),
            FailpointAction::kError);
}

TEST_F(FailpointTest, OffActionInstallsNothingForSite) {
  ASSERT_TRUE(
      Failpoints::Global().Configure("io.csv.open=off;io.csv.row=error").ok());
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvOpen),
            FailpointAction::kNone);
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvRow),
            FailpointAction::kError);
}

TEST_F(FailpointTest, EvaluateAtSelectsByIndexNotArrivalOrder) {
  ASSERT_TRUE(Failpoints::Global().Configure("fleet.shard.run=fail@3").ok());
  // Evaluate indices in descending order: the decision must track the index,
  // not how many hits the site has absorbed so far.
  EXPECT_EQ(Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, 4),
            FailpointAction::kFail);
  EXPECT_EQ(Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, 1),
            FailpointAction::kNone);
  EXPECT_EQ(Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, 2),
            FailpointAction::kNone);
  EXPECT_EQ(Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, 3),
            FailpointAction::kFail);
  // Re-evaluating the same index yields the same decision.
  EXPECT_EQ(Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, 3),
            FailpointAction::kFail);
}

TEST_F(FailpointTest, EvaluateAtAttemptBudgetAllowsRetryToSucceed) {
  ASSERT_TRUE(Failpoints::Global().Configure("fleet.shard.run=fail@2*1").ok());
  EXPECT_EQ(Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, 2, 1),
            FailpointAction::kFail);
  // The second attempt at the same index is beyond the '*1' budget.
  EXPECT_EQ(Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, 2, 2),
            FailpointAction::kNone);
  // Other eligible indices still fail their first attempt.
  EXPECT_EQ(Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, 5, 1),
            FailpointAction::kFail);
}

TEST_F(FailpointTest, EvaluateAtProbabilityIsAFunctionOfIndex) {
  const auto pattern_for = [](bool reversed) {
    EXPECT_TRUE(
        Failpoints::Global().Configure("io.ckpt.write=error~0.5", 11).ok());
    std::string pattern(64, '.');
    for (int i = 0; i < 64; ++i) {
      const int idx = reversed ? 63 - i : i;
      if (Failpoints::Global().EvaluateAt(
              kFailpointCkptWrite, static_cast<uint64_t>(idx) + 1) ==
          FailpointAction::kError) {
        pattern[idx] = 'E';
      }
    }
    return pattern;
  };
  const std::string forward = pattern_for(false);
  const std::string backward = pattern_for(true);
  EXPECT_EQ(forward, backward);
  // ~0.5 over 64 indices: both outcomes must appear.
  EXPECT_NE(forward.find('E'), std::string::npos);
  EXPECT_NE(forward.find('.'), std::string::npos);
}

TEST_F(FailpointTest, InjectedErrorAtMapsActions) {
  ASSERT_TRUE(Failpoints::Global()
                  .Configure("io.ckpt.read=error;fleet.shard.run=fail")
                  .ok());
  EXPECT_EQ(Failpoints::Global().InjectedErrorAt(kFailpointCkptRead, 1).code(),
            StatusCode::kIoError);
  EXPECT_EQ(
      Failpoints::Global().InjectedErrorAt(kFailpointFleetShardRun, 1).code(),
      StatusCode::kComputeError);
  EXPECT_TRUE(
      Failpoints::Global().InjectedErrorAt(kFailpointCsvOpen, 1).ok());
}

TEST_F(FailpointTest, ConcurrentArmingKeepsIndexedDecisionsDeterministic) {
  // Readers hammer EvaluateAt while the spec is re-armed concurrently; the
  // registry must stay consistent, and once arming settles every thread must
  // see the same per-index decision regardless of interleaving.
  constexpr int kThreads = 8;
  constexpr uint64_t kIndices = 32;
  // Armed before the readers start; the concurrent Configure calls below
  // re-install the identical spec, so every sweep sees the same rule.
  ASSERT_TRUE(
      Failpoints::Global().Configure("fleet.shard.run=fail@7", 3).ok());
  std::vector<std::thread> workers;
  std::vector<std::string> patterns(kThreads, std::string(kIndices, '.'));
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &patterns] {
      for (int round = 0; round < 50; ++round) {
        for (uint64_t i = 1; i <= kIndices; ++i) {
          Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, i);
        }
      }
      // Final sweep after arming has settled: record the decisions.
      for (uint64_t i = 1; i <= kIndices; ++i) {
        if (Failpoints::Global().EvaluateAt(kFailpointFleetShardRun, i) ==
            FailpointAction::kFail) {
          patterns[t][i - 1] = 'F';
        }
      }
    });
  }
  // Re-arm the same spec repeatedly while the readers run.
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(
        Failpoints::Global().Configure("fleet.shard.run=fail@7", 3).ok());
  }
  for (auto& w : workers) w.join();
  const std::string expected = [] {
    std::string p(kIndices, '.');
    std::fill(p.begin() + 6, p.end(), 'F');
    return p;
  }();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(patterns[t], expected) << "thread " << t;
  }
}

TEST_F(FailpointTest, ConfigureFromEnvReadsSpecAndSeed) {
  ASSERT_EQ(setenv("HOMETS_FAILPOINTS", "io.csv.open=error*1", 1), 0);
  ASSERT_EQ(setenv("HOMETS_FAILPOINTS_SEED", "5", 1), 0);
  EXPECT_TRUE(Failpoints::Global().ConfigureFromEnv().ok());
  EXPECT_TRUE(Failpoints::Global().armed());
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvOpen),
            FailpointAction::kError);
  EXPECT_EQ(Failpoints::Global().Evaluate(kFailpointCsvOpen),
            FailpointAction::kNone);
  ASSERT_EQ(unsetenv("HOMETS_FAILPOINTS"), 0);
  ASSERT_EQ(unsetenv("HOMETS_FAILPOINTS_SEED"), 0);
  EXPECT_TRUE(Failpoints::Global().ConfigureFromEnv().ok());
  EXPECT_FALSE(Failpoints::Global().armed());
}

}  // namespace
}  // namespace homets
