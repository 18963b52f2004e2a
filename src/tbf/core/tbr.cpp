#include "tbf/core/tbr.h"

#include <algorithm>

#include "tbf/util/logging.h"

namespace tbf::core {

TimeBasedRegulator::TimeBasedRegulator(sim::Simulator* sim, phy::MacTimings timings,
                                       TbrConfig config, size_t contenders,
                                       size_t per_queue_limit)
    : sim_(sim),
      timings_(timings),
      config_(config),
      contenders_(static_cast<TimeNs>(contenders)),
      per_queue_limit_(per_queue_limit) {
  TBF_CHECK(contenders > 0) << "TBR's contention divisor is the cell's station count";
}

void TimeBasedRegulator::OnAssociate(NodeId client) { GetOrAssociate(client); }

size_t TimeBasedRegulator::GetOrAssociate(NodeId client) {
  bool created = false;
  const auto slot = static_cast<size_t>(slots_.GetOrAdd(client, &created));
  if (!created) {
    return slot;
  }
  if (fill_ == nullptr) {
    // The timers start with the first client, the tick first: that order decides
    // which of the two sorts first at the instants they share.
    fill_ = sim_->StartTicker(kFillPeriod, [this] { FillEvent(); });
    if (config_.enable_rate_adjust) {
      if (config_.mode == TbrMode::kFastEwma) {
        sim_->Schedule(kDemandPeriod, [this] { DemandEvent(); });
      } else {
        sim_->Schedule(kAdjustPeriod, [this] { AdjustRateEvent(); });
      }
    }
  }
  ClientQueue& q = queues_.emplace_back();
  q.tokens = config_.initial_tokens;
  q.synced = Ticks();
  ClientState& st = clients_.emplace_back();
  st.id = client;
  total_weight_ += st.weight;
  if (rates_adjusted_ && total_weight_ > 0.0) {
    // Late association after the adjuster has moved rates: give the newcomer its
    // weighted fair share and scale everyone else down proportionally, preserving
    // both the rate sum and the converged relative allocation. (Resetting everything
    // to the static split here discarded all adjuster progress whenever a late flow's
    // first packet auto-associated mid-run.)
    const double share = st.weight / total_weight_;
    for (ClientState& other : clients_) {
      SetRate(other, other.rate * (1.0 - share));
    }
    SetRate(st, share);
    Rearm();
  } else {
    RecomputeFairRates();
  }
  return slot;
}

void TimeBasedRegulator::RecomputeFairRates() {
  if (total_weight_ <= 0.0) {
    return;
  }
  for (ClientState& st : clients_) {
    SetRate(st, st.weight / total_weight_);
  }
  Rearm();
}

void TimeBasedRegulator::SetWeight(NodeId client, double weight) {
  ClientState& st = clients_[GetOrAssociate(client)];
  const double old_weight = st.weight;
  total_weight_ += weight - st.weight;
  st.weight = weight;
  if (!rates_adjusted_) {
    RecomputeFairRates();
    return;
  }
  // Adjusted regime: scale this client's rate with its weight change and renormalize,
  // so the other clients keep their converged relative allocation instead of being
  // reset to the static split.
  SetRate(st, old_weight > 0.0 ? st.rate * (weight / old_weight)
                                : weight / total_weight_);
  double sum = 0.0;
  for (const ClientState& other : clients_) {
    sum += other.rate;
  }
  if (sum <= 0.0) {
    RecomputeFairRates();
    return;
  }
  for (ClientState& other : clients_) {
    SetRate(other, other.rate / sum);
  }
  Rearm();
}

bool TimeBasedRegulator::Enqueue(net::PacketPtr packet) {
  const size_t slot = GetOrAssociate(packet->wlan_client);
  ClientQueue& q = queues_[slot];
  if (q.packets.size() >= per_queue_limit_) {
    CountDrop();
    return false;
  }
  const bool was_empty = q.packets.empty();
  q.packets.PushBack(std::move(packet));
  if (was_empty) {
    Sync(q, Ticks());
    Rewake(slot);
  }
  return true;
}

net::PacketPtr TimeBasedRegulator::Dequeue() {
  const size_t n = queues_.size();
  if (n == 0) {
    return nullptr;
  }
  // Round-robin over queues with positive channel-time credit (Fig. 6, MACTXEVENT).
  // An eligible client is not in the wake heap, and popping leaves it out.
  const int64_t tick = Ticks();
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = next_ + i < n ? next_ + i : next_ + i - n;
    ClientQueue& q = queues_[idx];
    if (q.packets.empty()) {
      continue;
    }
    Sync(q, tick);
    if (q.tokens > 0) {
      next_ = idx + 1 < n ? idx + 1 : 0;
      return q.packets.PopFront();
    }
  }
  if (!config_.work_conserving_fallback) {
    return nullptr;
  }
  // No positive-credit queue: rather than idle the channel, serve the backlogged client
  // closest to eligibility (largest token balance). The scan above synced every
  // backlogged client.
  size_t best = n;
  for (size_t slot = 0; slot < n; ++slot) {
    const ClientQueue& q = queues_[slot];
    if (!q.packets.empty() && (best == n || q.tokens > queues_[best].tokens)) {
      best = slot;
    }
  }
  if (best == n) {
    return nullptr;
  }
  net::PacketPtr packet = queues_[best].packets.PopFront();
  Rewake(best);  // An emptied queue leaves the wake heap.
  return packet;
}

bool TimeBasedRegulator::HasEligible() const {
  for (const ClientQueue& q : queues_) {
    if (!q.packets.empty() && TokensNow(q) > 0) {
      return true;
    }
  }
  if (config_.work_conserving_fallback) {
    for (const ClientQueue& q : queues_) {
      if (!q.packets.empty()) {
        return true;
      }
    }
  }
  return false;
}

size_t TimeBasedRegulator::QueuedPackets() const {
  size_t n = 0;
  for (const ClientQueue& q : queues_) {
    n += q.packets.size();
  }
  return n;
}

TimeNs TimeBasedRegulator::EstimateOccupancy(int mac_frame_bytes, phy::WifiRate rate,
                                             int attempts) const {
  // The exchange's airtime plus a deterministic allowance for the IFS + backoff idle it
  // consumes. Under contention the expected idle is roughly the solo expectation divided
  // by the number of contenders (minimum of independent uniform draws), so scale by the
  // cell size; what matters for fairness is that the estimate is applied uniformly to all
  // nodes. The divisor is the declared station count, not the associated one, which
  // would bill early packets of a lazily associating cell as if it were smaller.
  const TimeNs per_attempt =
      phy::DataExchangeAirtime(mac_frame_bytes, rate, timings_) +
      (timings_.Difs() + (timings_.cw_min / 2) * timings_.slot / contenders_);
  return per_attempt * std::max(attempts, 1);
}

void TimeBasedRegulator::Charge(NodeId client, TimeNs occupancy) {
  const int32_t found = slots_.SlotOf(client);
  if (found < 0) {
    return;
  }
  const auto slot = static_cast<size_t>(found);
  ClientQueue& q = queues_[slot];
  Sync(q, Ticks());
  q.tokens -= occupancy;
  clients_[slot].actual += occupancy;
  Rewake(slot);
  if (config_.client_agent) {
    MaybePauseClient(slot);
  }
}

void TimeBasedRegulator::OnTxComplete(const mac::MacFrame& frame, bool /*success*/,
                                      int attempts, TimeNs /*airtime*/) {
  // Downlink completion. Without retry info the driver charges a single attempt.
  const int charged_attempts = config_.use_retry_info ? attempts : 1;
  Charge(frame.packet->wlan_client,
         EstimateOccupancy(frame.frame_bytes, frame.rate, charged_attempts));
}

void TimeBasedRegulator::OnUplinkObserved(const mac::ExchangeRecord& record) {
  if (config_.use_retry_info) {
    // Firmware exposes per-attempt information: charge ground-truth airtime of every
    // attempt, including corrupted ones.
    Charge(record.owner, record.airtime);
    return;
  }
  // Driver-only view: the AP sees (and can size) only successfully received data frames.
  if (record.collision || record.data_lost) {
    return;
  }
  Charge(record.owner, EstimateOccupancy(record.frame_bytes, record.rate, 1));
}

void TimeBasedRegulator::FillEvent() {
  // Each tick is kFillPeriod after the last, so it adds rate * kFillPeriod to every
  // bucket; TokensNow() folds that in when a client is next touched. Only the clients
  // this tick lifts above zero while backlogged need the MAC's attention now.
  const int64_t tick = Ticks();
  if (refill_due_) {
    Refill(tick - 1);  // This tick already adds the new fills.
  }
  bool became_eligible = false;
  while (!wake_.empty() && wake_.front().tick <= tick) {
    WakeErase(0);
    became_eligible = true;
  }
  if (became_eligible) {
    NotifyBacklog();
  }
  Rearm();
}

void TimeBasedRegulator::Refill(int64_t tick) {
  // Rates moved since the last tick. Each client first takes the ticks it missed at
  // the fill they were filled at, then gets the fill of its new rate, and the wake
  // heap is rebuilt on the new keys: one pass, before the first tick at the new rates.
  refill_due_ = false;
  wake_.clear();
  // Room for every client to wait at once, so the heap never allocates in flight (an
  // association always runs a Refill() before the heap can grow again).
  wake_.reserve(queues_.size());
  for (size_t slot = 0; slot < queues_.size(); ++slot) {
    ClientQueue& q = queues_[slot];
    Sync(q, tick);
    q.fill = static_cast<TimeNs>(clients_[slot].rate * static_cast<double>(kFillPeriod));
    q.wake_pos = -1;
    if (Waits(q)) {
      q.wake_pos = static_cast<int32_t>(wake_.size());
      wake_.push_back({WakeTick(q, tick), static_cast<int32_t>(slot)});
    }
  }
  for (size_t pos = wake_.size() / 2; pos-- > 0;) {
    WakeSiftDown(pos);
  }
}

void TimeBasedRegulator::Rearm() {
  if (refill_due_) {
    fill_->Arm(Ticks() + 1);
  } else if (!wake_.empty()) {
    fill_->Arm(wake_.front().tick);
  } else {
    fill_->Disarm();
  }
}

void TimeBasedRegulator::Rewake(size_t slot) {
  if (refill_due_) {
    return;  // Fills are stale; the armed coming tick's Refill() rebuilds the heap.
  }
  const ClientQueue& q = queues_[slot];
  if (q.wake_pos >= 0) {
    WakeErase(static_cast<size_t>(q.wake_pos));
  }
  if (Waits(q)) {
    wake_.push_back({WakeTick(q, Ticks()), static_cast<int32_t>(slot)});
    WakeSiftUp(wake_.size() - 1);
  }
  Rearm();
}

void TimeBasedRegulator::WakeErase(size_t pos) {
  queues_[static_cast<size_t>(wake_[pos].slot)].wake_pos = -1;
  const Wake last = wake_.back();
  wake_.pop_back();
  if (pos == wake_.size()) {
    return;
  }
  const bool earlier = last.tick < wake_[pos].tick;
  WakePlace(pos, last);
  if (earlier) {
    WakeSiftUp(pos);
  } else {
    WakeSiftDown(pos);
  }
}

void TimeBasedRegulator::WakeSiftUp(size_t pos) {
  const Wake wake = wake_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (wake_[parent].tick <= wake.tick) {
      break;
    }
    WakePlace(pos, wake_[parent]);
    pos = parent;
  }
  WakePlace(pos, wake);
}

void TimeBasedRegulator::WakeSiftDown(size_t pos) {
  const Wake wake = wake_[pos];
  const size_t n = wake_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && wake_[child + 1].tick < wake_[child].tick) {
      ++child;
    }
    if (wake.tick <= wake_[child].tick) {
      break;
    }
    WakePlace(pos, wake_[child]);
    pos = child;
  }
  WakePlace(pos, wake);
}

void TimeBasedRegulator::AdjustRateEvent() {
  const double window = static_cast<double>(kAdjustPeriod);
  // Excess = assigned share minus consumed share over the window (Fig. 7). The
  // classification scratch is reused across ADJUSTRATEEVENTs (steady state allocates
  // nothing, pinned by the packet-pool allocation test).
  std::vector<ClientState*>& under = adjust_under_;  // excess >= Rth.
  std::vector<ClientState*>& full = adjust_full_;    // consumed close to assignment: I'.
  under.clear();
  full.clear();
  ClientState* max_excess_node = nullptr;
  double max_excess = 0.0;
  double min_excess = 0.0;
  double total_usage = 0.0;
  for (ClientState& st : clients_) {
    const double usage = static_cast<double>(st.actual) / window;
    if (st.smoothed_usage < 0.0) {
      st.smoothed_usage = st.rate;  // Assume full use until evidence accumulates.
    }
    st.smoothed_usage += kUsageEwmaAlpha * (usage - st.smoothed_usage);
    total_usage += st.smoothed_usage;
    const double excess = st.rate - st.smoothed_usage;
    if (excess >= kAdjustThreshold) {
      under.push_back(&st);
      if (under.size() == 1 || excess < min_excess) {
        min_excess = excess;
      }
      if (max_excess_node == nullptr || excess > max_excess) {
        max_excess = excess;
        max_excess_node = &st;
      }
    } else {
      full.push_back(&st);
    }
  }

  const bool channel_has_headroom = total_usage < kSaturationGuard;
  if (!under.empty() && !full.empty() && channel_has_headroom) {
    // Donate half of the smallest under-utilizer's excess from the *largest*
    // under-utilizer, split equally among fully-utilizing nodes (Fig. 7). The max-min
    // guard: a donor's rate never drops below what it demonstrably uses plus a margin,
    // so estimator noise or transport burstiness cannot bleed away a busy node's share.
    double donation = min_excess / 2.0;
    donation = std::min(donation, max_excess - kAdjustThreshold / 2.0);
    donation = std::min(donation, max_excess_node->rate - kMinRate);
    if (donation > 0.0) {
      SetRate(*max_excess_node, max_excess_node->rate - donation);
      const double share = donation / static_cast<double>(full.size());
      for (ClientState* st : full) {
        SetRate(*st, st->rate + share);
      }
      rates_adjusted_ = true;
    }
  }

  // Max-min repair: a fully-utilizing node sitting below its weighted fair share is
  // starved; reclaim from nodes holding more than fair share, proportionally to their
  // surplus. This restores the paper's max-min constraint after demand shifts, from
  // which Fig. 7 alone cannot recover.
  for (ClientState* st : full) {
    const double fair = st->weight / total_weight_;
    if (st->rate >= fair) {
      continue;
    }
    double want = std::min(kRepairStep, fair - st->rate);
    double surplus_total = 0.0;
    for (ClientState& other : clients_) {
      const double other_fair = other.weight / total_weight_;
      if (&other != st && other.rate > other_fair) {
        surplus_total += other.rate - other_fair;
      }
    }
    if (surplus_total <= 0.0) {
      continue;
    }
    want = std::min(want, surplus_total);
    for (ClientState& other : clients_) {
      const double other_fair = other.weight / total_weight_;
      if (&other != st && other.rate > other_fair) {
        SetRate(other, other.rate - want * (other.rate - other_fair) / surplus_total);
      }
    }
    SetRate(*st, st->rate + want);
    rates_adjusted_ = true;
  }

  for (ClientState& st : clients_) {
    st.actual = 0;
  }
  Rearm();
  sim_->Schedule(kAdjustPeriod, [this] { AdjustRateEvent(); });
}

void TimeBasedRegulator::DemandEvent() {
  // kFastEwma's replacement for ADJUSTRATEEVENT: a full reallocation every
  // kDemandPeriod driven by per-client demand EWMAs, so a cell's shares track demand
  // shifts in tens of milliseconds instead of the 500 ms epoch.
  const double window = static_cast<double>(kDemandPeriod);
  double total_demand = 0.0;
  double active_weight = 0.0;
  size_t idle_count = 0;
  for (ClientState& st : clients_) {
    const double usage = static_cast<double>(st.actual) / window;
    if (st.smoothed_usage < 0.0) {
      st.smoothed_usage = usage;
    }
    st.smoothed_usage += kDemandAlpha * (usage - st.smoothed_usage);
    total_demand += st.smoothed_usage;
    st.actual = 0;
  }
  for (size_t slot = 0; slot < clients_.size(); ++slot) {
    if (DemandActive(slot)) {
      active_weight += clients_[slot].weight;
    } else {
      ++idle_count;
    }
  }
  const double idle_floor = kMinRate * static_cast<double>(idle_count);
  if (total_demand >= kSaturationGuard || active_weight <= 0.0 ||
      idle_floor >= 1.0) {
    // Saturated (or degenerate) cell: the estimator cannot distinguish low demand
    // from invisible retries, so fall back to the paper's static weighted split -
    // the same guard that stops the stock adjuster from bleeding busy nodes.
    RecomputeFairRates();
  } else {
    // Idle clients keep kMinRate so they can ramp back; active clients split the
    // rest by weight.
    for (size_t slot = 0; slot < clients_.size(); ++slot) {
      ClientState& st = clients_[slot];
      SetRate(st, DemandActive(slot) ? (st.weight / active_weight) * (1.0 - idle_floor)
                                     : kMinRate);
    }
    rates_adjusted_ = true;
    Rearm();
  }
  sim_->Schedule(kDemandPeriod, [this] { DemandEvent(); });
}

bool TimeBasedRegulator::DemandActive(size_t slot) const {
  const ClientQueue& q = queues_[slot];
  return !q.packets.empty() || TokensNow(q) < 0 ||
         clients_[slot].smoothed_usage >= kDemandActiveThreshold;
}

void TimeBasedRegulator::MaybePauseClient(size_t slot) {
  if (!client_pause_) {
    return;
  }
  const TimeNs tokens = queues_[slot].tokens;  // Charge() just synced it.
  const ClientState& st = clients_[slot];
  if (tokens >= 0 || st.rate <= 0.0) {
    return;
  }
  // Pause the client until its bucket is projected to refill to zero.
  const TimeNs debt = -tokens;
  const TimeNs pause = static_cast<TimeNs>(static_cast<double>(debt) / st.rate);
  client_pause_(st.id, sim_->Now() + pause);
}

TimeNs TimeBasedRegulator::tokens(NodeId client) const {
  const int32_t slot = slots_.SlotOf(client);
  return slot < 0 ? 0 : TokensNow(queues_[static_cast<size_t>(slot)]);
}

double TimeBasedRegulator::rate(NodeId client) const {
  const int32_t slot = slots_.SlotOf(client);
  return slot < 0 ? 0.0 : clients_[static_cast<size_t>(slot)].rate;
}

TimeNs TimeBasedRegulator::actual_usage(NodeId client) const {
  const int32_t slot = slots_.SlotOf(client);
  return slot < 0 ? 0 : clients_[static_cast<size_t>(slot)].actual;
}

}  // namespace tbf::core
