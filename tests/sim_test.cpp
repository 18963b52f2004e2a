#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tbf/sim/random.h"
#include "tbf/sim/simulator.h"
#include "tbf/util/units.h"

namespace tbf {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  sim::Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.IsIdle());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.Schedule(Us(30), [&] { order.push_back(3); });
  sim.Schedule(Us(10), [&] { order.push_back(1); });
  sim.Schedule(Us(20), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Us(30));
}

TEST(SimulatorTest, EqualTimestampsFireFifo) {
  sim::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.Schedule(Us(5), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, RunUntilStopsAtBound) {
  sim::Simulator sim;
  int fired = 0;
  sim.Schedule(Us(10), [&] { ++fired; });
  sim.Schedule(Us(50), [&] { ++fired; });
  sim.RunUntil(Us(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Us(20));
  sim.RunUntil(Us(100));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  sim::Simulator sim;
  int fired = 0;
  const sim::EventId id = sim.Schedule(Us(10), [&] { ++fired; });
  sim.Schedule(Us(20), [&] { ++fired; });
  sim.Cancel(id);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelFiredEventIsNoOp) {
  sim::Simulator sim;
  int fired = 0;
  const sim::EventId id = sim.Schedule(Us(10), [&] { ++fired; });
  sim.RunUntilIdle();
  sim.Cancel(id);
  sim.Cancel(sim::kInvalidEventId);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelTwiceDecrementsPendingOnce) {
  sim::Simulator sim;
  const sim::EventId id = sim.Schedule(Us(10), [] {});
  sim.Schedule(Us(20), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Cancel(id);  // Double-cancel must be a no-op, not a second decrement.
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.IsIdle());
  EXPECT_EQ(sim.RunUntilIdle(), 1);
  EXPECT_TRUE(sim.IsIdle());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelAfterFireKeepsCountsExact) {
  sim::Simulator sim;
  const sim::EventId id = sim.Schedule(Us(10), [] {});
  sim.RunUntilIdle();
  EXPECT_TRUE(sim.IsIdle());
  sim.Cancel(id);  // Stale id: already fired.
  sim.Cancel(id);
  EXPECT_TRUE(sim.IsIdle());
  EXPECT_EQ(sim.pending_events(), 0u);
  int fired = 0;
  sim.Schedule(Us(10), [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, StaleIdCannotCancelReusedSlot) {
  sim::Simulator sim;
  const sim::EventId old_id = sim.Schedule(Us(1), [] {});
  sim.RunUntilIdle();  // Frees the slot; the generation tag advances.
  int fired = 0;
  sim.Schedule(Us(1), [&] { ++fired; });  // Reuses the slot.
  sim.Cancel(old_id);                     // Must not hit the new occupant.
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancellingTheFiringEventFromItsOwnCallbackIsNoOp) {
  sim::Simulator sim;
  sim::EventId self = sim::kInvalidEventId;
  int fired = 0;
  self = sim.Schedule(Us(1), [&] {
    ++fired;
    sim.Cancel(self);  // The id is already retired while its callback runs.
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.IsIdle());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventPoolReachesSteadyState) {
  sim::Simulator sim;
  auto cycle = [&] {
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 256; ++i) {
      ids.push_back(sim.Schedule(Us(i % 29), [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 3) {
      sim.Cancel(ids[i]);
    }
    sim.RunUntilIdle();
  };
  cycle();
  const size_t warm_slots = sim.event_pool_slots();
  for (int r = 0; r < 10; ++r) {
    cycle();
  }
  // Slab slots are recycled through the free list, never re-grown in steady state.
  EXPECT_EQ(sim.event_pool_slots(), warm_slots);
}

TEST(SimulatorTest, FarFutureEventsOrderAcrossOverflowHorizon) {
  // Events beyond the timing wheel's horizon take the overflow path; order and FIFO
  // tie-breaking must be seamless across the boundary.
  sim::Simulator sim;
  std::vector<int> order;
  sim.Schedule(Sec(2), [&] { order.push_back(4); });
  sim.Schedule(Us(5), [&] { order.push_back(1); });
  sim.Schedule(Ms(500), [&] { order.push_back(2); });  // Overflow when scheduled.
  sim.Schedule(Ms(500), [&] { order.push_back(3); });  // Same instant: FIFO.
  sim.RunUntil(Sec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.Now(), Sec(2));
}

TEST(SimulatorTest, DeterministicOrderForDenseMixedSchedule) {
  // Same schedule -> identical execution order, including events scheduled from inside
  // callbacks at the current instant (which clamp to now and append in FIFO order).
  auto run = [] {
    sim::Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      sim.Schedule(Us(i % 17), [&sim, &order, i] {
        order.push_back(i);
        if (i % 31 == 0) {
          sim.Schedule(0, [&order, i] { order.push_back(1000 + i); });
        }
      });
    }
    sim.RunUntilIdle();
    return order;
  };
  const std::vector<int> first = run();
  EXPECT_EQ(first.size(), 517u);
  EXPECT_EQ(first, run());
}

TEST(SimulatorTest, EventsScheduledFromCallbacksRun) {
  sim::Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    ++depth;
    if (depth < 5) {
      sim.Schedule(Us(1), chain);
    }
  };
  sim.Schedule(Us(1), chain);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), Us(5));
}

TEST(SimulatorTest, PastScheduleClampsToNow) {
  sim::Simulator sim;
  sim.Schedule(Us(10), [&] {
    sim.ScheduleAt(Us(3), [&] { EXPECT_EQ(sim.Now(), Us(10)); });
  });
  sim.RunUntilIdle();
}

TEST(SimulatorTest, StopHaltsRun) {
  sim::Simulator sim;
  int fired = 0;
  sim.Schedule(Us(10), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Us(20), [&] { ++fired; });
  sim.RunUntil(Us(100));
  EXPECT_EQ(fired, 1);
  // A subsequent run resumes with the remaining events.
  sim.RunUntil(Us(100));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, TickerTicksAreNotEvents) {
  sim::Simulator sim;
  int ran = 0;
  sim::Simulator::Ticker* ticker = sim.StartTicker(Us(10), [&] { ++ran; });
  EXPECT_TRUE(sim.IsIdle());
  EXPECT_EQ(sim.RunUntil(Us(95)), 0);  // Unarmed ticks only count.
  EXPECT_EQ(ticker->count(), 9);
  ticker->Arm(12);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.RunUntil(Us(200)), 1);
  EXPECT_EQ(ran, 1);  // Running disarmed it.
  EXPECT_EQ(ticker->count(), 20);
  ticker->Arm(3);  // Passed: arms the next tick, which RunUntilIdle runs.
  EXPECT_EQ(sim.RunUntilIdle(), 1);
  EXPECT_EQ(ticker->count(), 21);
  EXPECT_EQ(sim.Now(), Us(210));
}

TEST(SimulatorDeathTest, TickerPeriodMustBePositive) {
  sim::Simulator sim;
  EXPECT_DEATH(sim.StartTicker(0, [] {}), "period");
}

// Runs one seeded stream of probe events against two periodic ticks, built either as
// self-rescheduling events (the reference) or as Simulator tickers. Probes log what
// they see and arm ticks at random; armed ticks log themselves and spawn probes. A
// correct ticker leaves every line of the log as the reference writes it.
template <bool kTickers>
class TickWorld {
 public:
  // {kind, id, time, count of tick 0, count of tick 1}.
  using Line = std::array<int64_t, 5>;

  TickWorld(uint64_t seed, std::array<TimeNs, 2> periods) : rng_(seed) {
    ticks_[0].period = periods[0];
    ticks_[1].period = periods[1];
  }
  TickWorld(const TickWorld&) = delete;
  TickWorld& operator=(const TickWorld&) = delete;

  std::vector<Line> Run() {
    for (int i = 0; i < 8; ++i) {
      Spawn();  // Some probes take sequence numbers before the first tick's.
    }
    Start(0);
    second_at_ = rng_.UniformInt(1, 40) * ticks_[0].period + rng_.UniformInt(-1, 1);
    for (int64_t step = 0; step < 400; ++step) {
      const int64_t injected = rng_.UniformInt(0, 3);
      for (int64_t i = 0; i < injected; ++i) {
        Spawn();
      }
      // On a tick instant, or next to one, or anywhere.
      const Tick& t = ticks_[PickTick()];
      TimeNs until = NextTickAt(t) + rng_.UniformInt(0, 3) * t.period;
      const int64_t where = rng_.UniformInt(0, 3);
      until += where == 0 ? 0 : where == 1 ? rng_.UniformInt(-1, 1)
                                           : rng_.UniformInt(-t.period, t.period);
      sim_.RunUntil(std::max(until, sim_.Now()));
      Log(2, step);
    }
    return log_;
  }

 private:
  struct Tick {
    TimeNs period = 0;
    TimeNs start = -1;  // -1 until started.
    int64_t count = 0;  // Reference only.
    int64_t armed = INT64_MAX;  // Reference only.
    sim::Simulator::Ticker* ticker = nullptr;
  };

  void Start(size_t i) {
    Tick& t = ticks_[i];
    t.start = sim_.Now();
    if constexpr (kTickers) {
      t.ticker = sim_.StartTicker(t.period, [this, i] { Ran(i); });
    } else {
      sim_.Schedule(t.period, [this, i] { ReferenceTick(i); });
    }
  }
  // The self-rescheduling event a ticker replaces: it reschedules as its last act.
  void ReferenceTick(size_t i) {
    Tick& t = ticks_[i];
    if (++t.count >= t.armed) {
      t.armed = INT64_MAX;
      Ran(i);
    }
    sim_.Schedule(t.period, [this, i] { ReferenceTick(i); });
  }
  int64_t Count(size_t i) const {
    const Tick& t = ticks_[i];
    if constexpr (kTickers) {
      return t.ticker == nullptr ? 0 : t.ticker->count();
    } else {
      return t.count;
    }
  }
  void Arm(size_t i, int64_t tick) {
    if constexpr (kTickers) {
      ticks_[i].ticker->Arm(tick);
    } else {
      ticks_[i].armed = tick;
    }
  }
  void Disarm(size_t i) {
    if constexpr (kTickers) {
      ticks_[i].ticker->Disarm();
    } else {
      ticks_[i].armed = INT64_MAX;
    }
  }

  void Log(int64_t kind, int64_t id) {
    log_.push_back({kind, id, sim_.Now(), Count(0), Count(1)});
  }
  void Ran(size_t i) {
    Log(1, static_cast<int64_t>(i));
    Act();
  }
  void Probe(size_t id) {
    pending_[id] = false;
    --live_;
    Log(0, static_cast<int64_t>(id));
    Act();
  }

  // What a probe or an armed tick does: re-arm or disarm a tick, spawn probes, cancel
  // one, start the second tick, now and then stop the run.
  void Act() {
    if (ticks_[1].start < 0 && sim_.Now() >= second_at_) {
      Start(1);
    }
    const size_t i = PickTick();
    const int64_t arm = rng_.UniformInt(0, 9);
    if (arm < 5) {
      Arm(i, Count(i) + rng_.UniformInt(-1, 4));  // A passed tick arms the next one.
    } else if (arm == 5) {
      Disarm(i);
    }
    const int64_t spawn = live_ < 64 ? rng_.UniformInt(0, 2) : 0;
    for (int64_t k = 0; k < spawn; ++k) {
      Spawn();
    }
    if (rng_.Bernoulli(0.05)) {
      const auto id = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(pending_.size()) - 1));
      if (pending_[id]) {
        sim_.Cancel(ids_[id]);
        pending_[id] = false;
        --live_;
      }
    }
    if (rng_.Bernoulli(0.002)) {
      sim_.Stop();
    }
  }

  void Spawn() {
    const size_t id = pending_.size();
    pending_.push_back(true);
    ++live_;
    ids_.push_back(sim_.Schedule(PickDelay(), [this, id] { Probe(id); }));
  }
  // 0, onto or next to a tick instant (often one whose sequence number is not yet
  // taken), anywhere within a few periods, or past the wheel's horizon.
  TimeNs PickDelay() {
    const Tick& t = ticks_[PickTick()];
    switch (rng_.UniformInt(0, 5)) {
      case 0:
        return 0;
      case 1:
        return rng_.UniformInt(0, 3 * t.period);
      case 5:
        return rng_.UniformInt(1, 8) * Ms(5);
      default:
        return NextTickAt(t) - sim_.Now() + rng_.UniformInt(0, 3) * t.period +
               rng_.UniformInt(-1, 1);
    }
  }
  TimeNs NextTickAt(const Tick& t) const {
    return t.start + ((sim_.Now() - t.start) / t.period + 1) * t.period;
  }
  size_t PickTick() { return ticks_[1].start < 0 ? 0 : rng_.Bernoulli(0.5) ? 1 : 0; }

  sim::Simulator sim_;
  sim::Rng rng_;
  std::array<Tick, 2> ticks_;
  TimeNs second_at_ = 0;
  std::vector<Line> log_;
  std::vector<bool> pending_;  // By probe id.
  std::vector<sim::EventId> ids_;
  int64_t live_ = 0;
};

TEST(SimulatorTest, TickerKeepsTheSelfReschedulingEventsPlace) {
  size_t lines = 0;
  size_t ran = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Periods of a few wheel buckets up to ~100 of them; the second is never a
    // multiple of the first, so their ticks drift across each other.
    const TimeNs p0 = Us(3) + static_cast<TimeNs>(seed % 7) * Us(61) + 1;
    const std::array<TimeNs, 2> periods = {p0, p0 * 5 / 2 + 3};
    const std::vector<TickWorld<false>::Line> want = TickWorld<false>(seed, periods).Run();
    const std::vector<TickWorld<true>::Line> got = TickWorld<true>(seed, periods).Run();
    const size_t n = std::min(want.size(), got.size());
    size_t first = 0;
    while (first < n && want[first] == got[first]) {
      ++first;
    }
    ASSERT_EQ(first, want.size()) << "first difference at line " << first << " of "
                                  << want.size() << " (ticker log has " << got.size()
                                  << ")";
    ASSERT_EQ(got.size(), want.size());
    lines += want.size();
    for (const TickWorld<true>::Line& line : want) {
      ran += line[0] == 1 ? 1 : 0;
    }
  }
  // The streams are long, and armed ticks do run.
  EXPECT_GT(lines, 100000u);
  EXPECT_GT(ran, 10000u);
}

TEST(RngTest, DeterministicForSeed) {
  sim::Rng a(42);
  sim::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1023), b.UniformInt(0, 1023));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  sim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 17);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  sim::Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, ParetoAboveMinimum) {
  sim::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(10.0, 1.2), 10.0);
  }
}

TEST(UnitsTest, TransmissionTimeRoundsUp) {
  // 1500 bytes at 11 Mbps = 12000 bits / 11e6 bps = 1090.909.. us.
  EXPECT_EQ(TransmissionTime(1500, Mbps(11)), 1090910);  // ns, rounded up.
  EXPECT_EQ(TransmissionTime(1500, Mbps(1)), Us(12000));
}

TEST(UnitsTest, ThroughputBps) {
  EXPECT_DOUBLE_EQ(ThroughputBps(125'000, Sec(1)), 1e6);
  EXPECT_DOUBLE_EQ(ThroughputBps(100, 0), 0.0);
}

}  // namespace
}  // namespace tbf
