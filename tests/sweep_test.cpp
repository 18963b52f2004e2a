// SweepRunner: ordering, determinism (serial vs parallel bit-identical Results across
// pool sizes), the declarative job form, and the audited shared state (model and phy
// tables) under concurrent scenarios. This binary is also the payload of the TSan CTest
// configuration (-DTBF_SANITIZE=thread), which turns any latent data race in the shared
// layers into a hard failure.
#include "tbf/sweep/sweep_runner.h"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "tbf/model/baseline.h"

namespace tbf {
namespace {

using scenario::Direction;
using scenario::QdiscKind;
using scenario::Results;
using sweep::ScenarioJob;
using sweep::SweepRunner;
using sweep::SweepError;

ScenarioJob PairJob(QdiscKind qdisc, phy::WifiRate r1, phy::WifiRate r2, Direction dir,
                    uint64_t seed) {
  ScenarioJob job;
  job.config.qdisc = qdisc;
  job.config.seed = seed;
  job.config.warmup = Ms(500);
  job.config.duration = Sec(2);
  for (NodeId id = 1; id <= 2; ++id) {
    scenario::StationSpec station;
    station.id = id;
    station.rate = id == 1 ? r1 : r2;
    job.stations.push_back(station);
    scenario::FlowSpec flow;
    flow.client = id;
    flow.direction = dir;
    flow.transport = scenario::Transport::kTcp;
    job.flows.push_back(flow);
  }
  return job;
}

// A small but diverse grid: rate pairs x direction x qdisc x seed, like the paper's
// figure grids.
std::vector<ScenarioJob> TestGrid() {
  std::vector<ScenarioJob> jobs;
  jobs.push_back(PairJob(QdiscKind::kFifo, phy::WifiRate::k11Mbps, phy::WifiRate::k11Mbps,
                         Direction::kUplink, 1));
  jobs.push_back(PairJob(QdiscKind::kFifo, phy::WifiRate::k1Mbps, phy::WifiRate::k11Mbps,
                         Direction::kUplink, 2));
  jobs.push_back(PairJob(QdiscKind::kTbr, phy::WifiRate::k1Mbps, phy::WifiRate::k11Mbps,
                         Direction::kDownlink, 3));
  jobs.push_back(PairJob(QdiscKind::kTbr, phy::WifiRate::k2Mbps, phy::WifiRate::k5_5Mbps,
                         Direction::kDownlink, 1));
  jobs.push_back(PairJob(QdiscKind::kRoundRobin, phy::WifiRate::k5_5Mbps,
                         phy::WifiRate::k11Mbps, Direction::kDownlink, 7));
  jobs.push_back(PairJob(QdiscKind::kDrr, phy::WifiRate::k11Mbps, phy::WifiRate::k2Mbps,
                         Direction::kDownlink, 7));
  return jobs;
}

TEST(SweepRunnerTest, MapReturnsResultsInSubmissionOrder) {
  SweepRunner runner(4);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([i] { return i * i; });
  }
  const std::vector<int> out = runner.Map(std::move(jobs));
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(SweepRunnerTest, PoolIsReusableAcrossBatches) {
  SweepRunner runner(2);
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 8; ++i) {
      jobs.push_back([batch, i] { return batch * 100 + i; });
    }
    const std::vector<int> out = runner.Map(std::move(jobs));
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(out[static_cast<size_t>(i)], batch * 100 + i);
    }
  }
}

// The acceptance property of the whole subsystem: the same specs and seeds produce
// byte-identical Results regardless of pool size (serial run == every parallel run).
// operator== on Results compares doubles bitwise, which is exactly the guarantee the
// deterministic table output relies on.
TEST(SweepRunnerTest, SerialAndParallelResultsBitIdentical) {
  const std::vector<ScenarioJob> jobs = TestGrid();

  SweepRunner serial(1);
  const std::vector<Results> reference = serial.RunScenarios(jobs);
  ASSERT_EQ(reference.size(), jobs.size());
  // Sanity: the grid actually simulates traffic.
  for (const Results& r : reference) {
    EXPECT_GT(r.aggregate_bps, 0.0);
    EXPECT_GT(r.mac_exchanges, 0);
  }

  for (int pool_size : {2, 4, 7}) {
    SweepRunner parallel(pool_size);
    const std::vector<Results> out = parallel.RunScenarios(jobs);
    ASSERT_EQ(out.size(), reference.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], reference[i]) << "pool=" << pool_size << " job=" << i;
    }
  }
}

TEST(SweepRunnerTest, RepeatedRunsOnSamePoolAreIdentical) {
  const std::vector<ScenarioJob> jobs = TestGrid();
  SweepRunner runner(3);
  const std::vector<Results> first = runner.RunScenarios(jobs);
  const std::vector<Results> second = runner.RunScenarios(jobs);
  EXPECT_EQ(first, second);
}

TEST(SweepRunnerTest, ConfigureHookRunsOnBuiltScenario) {
  ScenarioJob job = PairJob(QdiscKind::kTbr, phy::WifiRate::k1Mbps, phy::WifiRate::k11Mbps,
                            Direction::kDownlink, 5);
  std::atomic<bool> hook_ran{false};
  job.configure = [&hook_ran](scenario::Wlan& wlan) {
    ASSERT_NE(wlan.tbr(), nullptr);  // BuildNow happened before the hook.
    wlan.tbr()->SetWeight(2, 2.0);
    hook_ran = true;
  };
  SweepRunner runner(2);
  const std::vector<Results> out = runner.RunScenarios({job});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(hook_ran.load());
  EXPECT_GT(out[0].aggregate_bps, 0.0);
}

// Audited shared state: concurrent scenarios hit the paper-table statics and the phy
// tables. Under -DTBF_SANITIZE=thread this is the race detector's hunting ground; in a
// plain build it still checks the table contents are stable.
TEST(SweepRunnerTest, SharedImmutableStateSurvivesConcurrentReaders) {
  SweepRunner runner(4);
  std::vector<std::function<double()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back([] {
      double sum = 0.0;
      for (const auto& [rate, beta] : model::PaperTable2Baselines()) {
        sum += beta + phy::GetRateInfo(rate).bps;
      }
      return sum;
    });
  }
  const std::vector<double> sums = runner.Map(std::move(jobs));
  for (double s : sums) {
    EXPECT_EQ(s, sums[0]);
  }
}

// ---------------------------------------------------------------------------
// Exception propagation: a throwing job must surface as SweepError carrying the
// failing job's submission index, not take the process down via std::terminate,
// and must leave the pool reusable.
// ---------------------------------------------------------------------------

TEST(SweepErrorTest, WorkerExceptionCarriesJobIdentity) {
  SweepRunner runner(4);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back([i]() -> int {
      if (i == 11) {
        throw std::runtime_error("flaky scenario");
      }
      return i;
    });
  }
  try {
    runner.Map(std::move(jobs));
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    EXPECT_EQ(e.job_index(), 11u);
    EXPECT_NE(std::string(e.what()).find("sweep job #11"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("flaky scenario"), std::string::npos);
  }
}

TEST(SweepErrorTest, LowestFailingIndexWinsDeterministically) {
  SweepRunner runner(4);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 32; ++i) {
      jobs.push_back([i]() -> int {
        if (i % 7 == 3) {  // Jobs 3, 10, 17, 24, 31 all throw.
          throw std::runtime_error("boom");
        }
        return i;
      });
    }
    try {
      runner.Map(std::move(jobs));
      FAIL() << "expected SweepError";
    } catch (const SweepError& e) {
      EXPECT_EQ(e.job_index(), 3u);  // Independent of worker interleaving.
    }
  }
}

TEST(SweepErrorTest, PoolSurvivesAndStaysCorrectAfterFailure) {
  SweepRunner runner(3);
  std::vector<std::function<int()>> bad;
  bad.push_back([]() -> int { throw std::logic_error("first batch fails"); });
  EXPECT_THROW(runner.Map(std::move(bad)), SweepError);

  // The same pool then runs a clean batch with correct, ordered results.
  std::vector<std::function<int()>> good;
  for (int i = 0; i < 12; ++i) {
    good.push_back([i] { return i * 3; });
  }
  const std::vector<int> out = runner.Map(std::move(good));
  ASSERT_EQ(out.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i * 3);
  }
}

TEST(SweepErrorTest, NonStdExceptionIsWrappedNotFatal) {
  SweepRunner runner(2);
  std::vector<std::function<int()>> jobs;
  jobs.push_back([]() -> int { throw 42; });  // Not a std::exception.
  try {
    runner.Map(std::move(jobs));
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    EXPECT_EQ(e.job_index(), 0u);
    EXPECT_NE(std::string(e.what()).find("unknown exception"), std::string::npos);
  }
}

TEST(SweepRunnerTest, DefaultThreadCountHonorsEnv) {
  ::setenv("TBF_SWEEP_THREADS", "3", 1);
  EXPECT_EQ(SweepRunner::DefaultThreadCount(), 3);
  ::setenv("TBF_SWEEP_THREADS", "0", 1);  // Invalid: falls back to hardware.
  EXPECT_GE(SweepRunner::DefaultThreadCount(), 1);
  ::unsetenv("TBF_SWEEP_THREADS");
  EXPECT_GE(SweepRunner::DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace tbf
