// Scenario validation: malformed ScenarioConfig / StationSpec / FlowSpec combinations
// must fail fast at Build() with a thrown scenario::ScenarioError naming the offending
// spec - not a mid-run TBF_CHECK abort, and never a silently wrong simulation. This is
// the same validation the campaign coordinator runs over every manifest job before
// dispatching anything (campaign/manifest.h).
#include <functional>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "tbf/scenario/wlan.h"
#include "tbf/trace/trace.h"

namespace tbf::scenario {
namespace {

ScenarioConfig BaseConfig() {
  ScenarioConfig config;
  config.warmup = Ms(10);
  config.duration = Ms(50);
  return config;
}

StationSpec Station(NodeId id, phy::WifiRate rate = phy::WifiRate::k11Mbps) {
  StationSpec spec;
  spec.id = id;
  spec.rate = rate;
  return spec;
}

FlowSpec BulkTcp(NodeId client) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = Direction::kDownlink;
  spec.transport = Transport::kTcp;
  return spec;
}

// Asserts the triple is rejected with a diagnostic containing `needle`.
void ExpectInvalid(const ScenarioConfig& config, const std::vector<StationSpec>& stations,
                   const std::vector<FlowSpec>& flows, const std::string& needle) {
  const std::string err = ValidateScenario(config, stations, flows);
  EXPECT_FALSE(err.empty()) << "expected rejection mentioning: " << needle;
  EXPECT_NE(err.find(needle), std::string::npos) << "got: " << err;
}

TEST(ScenarioValidationTest, WellFormedScenarioPasses) {
  EXPECT_EQ(ValidateScenario(BaseConfig(), {Station(1), Station(2)},
                             {BulkTcp(1), BulkTcp(2)}),
            "");
}

TEST(ScenarioValidationTest, ConfigBoundsAreEnforced) {
  {
    ScenarioConfig config = BaseConfig();
    config.duration = 0;
    ExpectInvalid(config, {Station(1)}, {}, "duration");
  }
  {
    ScenarioConfig config = BaseConfig();
    config.warmup = -1;
    ExpectInvalid(config, {Station(1)}, {}, "warmup");
  }
  {
    ScenarioConfig config = BaseConfig();
    config.qdisc = QdiscKind::kTbr;
    config.tbr.bucket_depth = 0;
    ExpectInvalid(config, {Station(1)}, {}, "TBR");
  }
  {
    // TBR's contention allowance divides by the declared station count.
    ScenarioConfig config = BaseConfig();
    config.qdisc = QdiscKind::kTbr;
    ExpectInvalid(config, {}, {}, "TBR needs a station");
    config.qdisc = QdiscKind::kFifo;
    EXPECT_EQ(ValidateScenario(config, {}, {}), "");
  }
}

TEST(ScenarioValidationTest, NonFiniteDoublesAreRejectedEverywhere) {
  // Every comparison with NaN is false, so a range check written as `x < bound` lets
  // NaN through; a NaN snr_db silently disables loss, and a NaN think time reaches a
  // float-to-int cast. Each double of StationSpec and FlowSpec::onoff must be finite,
  // in both TBR modes.
  struct Case {
    const char* field;
    std::function<void(ScenarioConfig*, StationSpec*, FlowSpec*, double)> set;
  };
  const Case cases[] = {
      {"per", [](ScenarioConfig*, StationSpec* s, FlowSpec*, double v) { s->per = v; }},
      {"snr_db", [](ScenarioConfig*, StationSpec* s, FlowSpec*, double v) { s->snr_db = v; }},
      {"mean_flow_bytes",
       [](ScenarioConfig*, StationSpec*, FlowSpec* f, double v) { f->onoff.mean_flow_bytes = v; }},
      {"pareto_alpha",
       [](ScenarioConfig*, StationSpec*, FlowSpec* f, double v) { f->onoff.pareto_alpha = v; }},
      {"mean_think_sec",
       [](ScenarioConfig*, StationSpec*, FlowSpec* f, double v) { f->onoff.mean_think_sec = v; }},
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const core::TbrMode mode : {core::TbrMode::kStock, core::TbrMode::kFastEwma}) {
    for (const Case& c : cases) {
      for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
        SCOPED_TRACE(std::string(c.field) + " = " + std::to_string(bad) + ", mode " +
                     std::to_string(static_cast<int>(mode)));
        ScenarioConfig config = BaseConfig();
        config.qdisc = QdiscKind::kTbr;
        config.tbr.mode = mode;
        StationSpec station = Station(1);
        FlowSpec flow = BulkTcp(1);
        flow.model = TrafficModel::kOnOffWeb;
        ASSERT_EQ(ValidateScenario(config, {station}, {flow}), "");
        c.set(&config, &station, &flow, bad);
        ExpectInvalid(config, {station}, {flow}, c.field);
      }
    }
  }
}

TEST(ScenarioValidationTest, StationSpecsAreValidatedWithIdentity) {
  ExpectInvalid(BaseConfig(), {Station(0)}, {}, "station #0");
  ExpectInvalid(BaseConfig(), {Station(kServerId)}, {}, "client ids");
  ExpectInvalid(BaseConfig(), {Station(3), Station(3)}, {}, "duplicate");
  {
    StationSpec bad = Station(1);
    bad.per = 1.5;
    ExpectInvalid(BaseConfig(), {bad}, {}, "per must be in [0, 1]");
  }
  {
    StationSpec bad = Station(1);
    bad.per = std::numeric_limits<double>::quiet_NaN();  // NaN must not slip through.
    ExpectInvalid(BaseConfig(), {bad}, {}, "per must be in [0, 1]");
  }
}

TEST(ScenarioValidationTest, FlowSpecsAreValidatedWithIdentity) {
  ExpectInvalid(BaseConfig(), {Station(1)}, {BulkTcp(2)}, "undeclared station");
  {
    FlowSpec bad = BulkTcp(1);
    bad.packet_bytes = 40;  // Exactly the TCP header: no payload fits.
    ExpectInvalid(BaseConfig(), {Station(1)}, {bad}, "packet_bytes");
  }
  {
    FlowSpec bad = BulkTcp(1);
    bad.transport = Transport::kUdp;
    bad.udp_rate = 0;
    ExpectInvalid(BaseConfig(), {Station(1)}, {bad}, "udp_rate");
  }
  {
    FlowSpec bad = BulkTcp(1);
    bad.model = TrafficModel::kTaskSequence;  // task_bytes/task_count left at 0.
    ExpectInvalid(BaseConfig(), {Station(1)}, {bad}, "task");
  }
  {
    FlowSpec bad = BulkTcp(1);
    bad.model = TrafficModel::kOnOffWeb;
    bad.onoff.pareto_alpha = 1.0;  // Infinite-mean Pareto.
    ExpectInvalid(BaseConfig(), {Station(1)}, {bad}, "pareto_alpha");
  }
  {
    FlowSpec bad = BulkTcp(1);
    bad.model = TrafficModel::kTraceReplay;  // Empty replay.
    ExpectInvalid(BaseConfig(), {Station(1)}, {bad}, "replay");
  }
  {
    FlowSpec bad = BulkTcp(1);
    bad.model = TrafficModel::kTraceReplay;
    bad.replay = {{Ms(10), 1000}, {Ms(5), 1000}};  // Out of trace order.
    ExpectInvalid(BaseConfig(), {Station(1)}, {bad}, "trace order");
  }
  // The diagnostic names the failing flow, not just the failure.
  FlowSpec bad = BulkTcp(1);
  bad.packet_bytes = 1;
  const std::string err =
      ValidateScenario(BaseConfig(), {Station(1)}, {BulkTcp(1), bad});
  EXPECT_NE(err.find("flow #1"), std::string::npos) << err;
}

TEST(ScenarioValidationTest, BuildThrowsScenarioErrorInsteadOfAborting) {
  Wlan wlan(BaseConfig());
  wlan.AddStation(Station(1));
  wlan.AddBulkTcp(/*client=*/2, Direction::kDownlink);  // Undeclared station.
  try {
    wlan.Run();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid scenario"), std::string::npos) << what;
    EXPECT_NE(what.find("undeclared station"), std::string::npos) << what;
  }
}

TEST(ScenarioValidationTest, ValidScenarioStillRunsAfterValidationHookup) {
  Wlan wlan(BaseConfig());
  wlan.AddStation(Station(1));
  wlan.AddSaturatingUdp(/*client=*/1, Direction::kDownlink);
  const Results results = wlan.Run();
  EXPECT_GT(results.aggregate_bps, 0.0);
}

}  // namespace
}  // namespace tbf::scenario
