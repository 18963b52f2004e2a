// TBR - the Time-based Regulator (the paper's core contribution, Figures 6 and 7).
//
// TBR is an AP qdisc that grants each competing client an equal (or weighted) long-term
// share of channel occupancy time. It keeps one leaky bucket per client whose unit is
// microseconds-of-channel-time (nanoseconds here):
//
//   ASSOCIATEEVENT  -> OnAssociate()      creates queue_i, tokens_i, rate_i
//   FILLEVENT       -> FillEvent()        tokens_i += dt * rate_i   (capped at bucket_i),
//                                         folded in lazily: the tick is a sim::Ticker
//                                         that only counts, and a client catches up on
//                                         the ticks it missed when touched. FillEvent()
//                                         runs only at armed ticks: the first after a
//                                         rate moved, and the earliest tick of a wake
//                                         heap naming when each backlogged, indebted
//                                         client turns eligible
//   APPTXEVENT      -> Enqueue()          append packet to queue_i
//   MACTXEVENT      -> Dequeue()          round-robin over queues with tokens_i > 0
//   COMPLETEEVENT   -> OnTxComplete() /   tokens_i -= occupancy(p), actual_i += occupancy(p)
//                      OnUplinkObserved()
//   ADJUSTRATEEVENT -> AdjustRateEvent()  max-min redistribution of under-used rate
//
// The fixed parameters - the paper's 2 ms fill tick, 500 ms ADJUSTRATEEVENT and threshold
// Rth, and fast-EWMA's 50 ms demand event - are constants of the regulator (kFillPeriod
// and on); TbrConfig holds only what a scenario chooses.
//
// Occupancy is *estimated* the way a driver would: PLCP + data + SIFS + ACK from (size,
// rate), plus a deterministic contention allowance divided by the cell's declared station
// count, a constructor argument. Like the paper's HostAP implementation, TBR by default
// has no retransmission information (use_retry_info=false), which slightly biases
// against nodes whose failed attempts go unseen - the Exp-TBR vs Eq.12 gap the paper
// reports. Enabling use_retry_info charges ground-truth per-attempt airtime instead.
//
// Uplink regulation needs no client changes for TCP: while tokens_i <= 0 the whole of
// client i's downlink queue (data *and* TCP acks) is ineligible, which stalls the sender's
// ack clock (paper 4.1). For uplink UDP an optional client agent (client_pause_fn) mimics
// the notification bit.
#ifndef TBF_CORE_TBR_H_
#define TBF_CORE_TBR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "tbf/ap/qdisc.h"
#include "tbf/phy/timing.h"
#include "tbf/sim/simulator.h"

namespace tbf::core {

// Scheduling policy of the regulator. kStock is the paper's TBR. kFastEwma is the
// adaptive variant raced in docs/schedulers.md: it erases the "burst tax" (equal 1/N
// shares penalize the first short burst in a mostly-idle cell, and the 500 ms adjuster
// moves idle shares only partly - see work_conserving_fallback) while keeping the
// paper's long-term time fairness.
enum class TbrMode : int {
  kStock = 0,
  // Replaces the fixed 500 ms ADJUSTRATEEVENT with a demand-driven reallocation every
  // kDemandPeriod (50 ms): clients with live demand (backlog, debt, or smoothed usage
  // above kDemandActiveThreshold) split the channel by weight; idle clients keep
  // kMinRate so they can ramp back. Under saturation (total smoothed usage >=
  // kSaturationGuard) shares revert to the static weighted fair split, so estimator
  // noise cannot bleed share from busy nodes - the same guard the stock adjuster uses.
  kFastEwma = 1,
  kLast = kFastEwma,  // Range sentinel for decoders; an alias, not a mode.
};

struct TbrConfig {
  TbrMode mode = TbrMode::kStock;

  // Token bucket parameters.
  TimeNs bucket_depth = Ms(20);    // bucket_i: burst bound, affects short-term fairness.
  TimeNs initial_tokens = Ms(10);  // T_init.

  // Rate adjustment (Fig. 7).
  bool enable_rate_adjust = true;

  // Work conservation at *packet* granularity: when no queue has positive tokens but
  // packets are waiting, release from the most-token backlogged queue instead of idling.
  // Default OFF because the packet-level fallback defeats uplink ack-withholding (the AP
  // queue often holds only the throttled node's acks, so the fallback would always
  // release them). Without it, an associated station that sends nothing holds channel
  // time nobody uses, for good: ADJUSTRATEEVENT donates only while a client's excess
  // (its rate minus its smoothed usage, so at most its share) is at least
  // kAdjustThreshold, and never takes a donor below kAdjustThreshold / 2 above its use.
  // With equal weights and N >= 13 stations (1/N < 0.08) no share moves at all. Kept
  // as an option for the ablation bench and the trace audit.
  bool work_conserving_fallback = false;

  // Occupancy estimator.
  bool use_retry_info = false;  // Paper's implementation: false.

  // Optional explicit client cooperation (paper 4.1) for uplink UDP.
  bool client_agent = false;

  // Plain data: campaign jobs ship TbrConfig over the wire and compare round-trips.
  friend bool operator==(const TbrConfig&, const TbrConfig&) = default;
};

class TimeBasedRegulator : public ap::Qdisc {
 public:
  using ClientPauseFn = std::function<void(NodeId client, TimeNs until)>;

  // The paper's fixed parameters, the same in every cell.
  static constexpr TimeNs kFillPeriod = Ms(2);      // FILLEVENT tick.
  static constexpr TimeNs kAdjustPeriod = Ms(500);  // ADJUSTRATEEVENT (kStock).
  static constexpr double kAdjustThreshold = 0.08;  // Rth, as a fraction of channel time.
  // Usage is smoothed across adjustment windows before excess capacity is computed, so
  // transport-layer burstiness (ack-clocked TCP under regulation is very bursty) does not
  // masquerade as persistent under-utilization and bleed rate away from a busy node.
  static constexpr double kUsageEwmaAlpha = 0.35;
  // Donation only happens while the cell has genuine headroom by TBR's own accounting
  // (sum of smoothed usages below this fraction). On a saturated channel a node whose
  // estimated usage trails its assignment is a victim of estimation error (collisions and
  // retries are invisible without retry info), not an under-utilizer; redistributing then
  // would bleed share from busy fast nodes toward slow ones.
  static constexpr double kSaturationGuard = 0.91;
  static constexpr double kMinRate = 0.01;  // Floor so a donor can always ramp back up.
  // Max-min repair step: how far one ADJUSTRATEEVENT pulls a starved, fully-utilizing
  // node back toward its fair share.
  static constexpr double kRepairStep = 0.05;
  // kFastEwma: demand-event cadence and smoothing. A client counts as active while it
  // is backlogged, in token debt, or its demand EWMA is at least the threshold
  // (fraction of channel time).
  static constexpr TimeNs kDemandPeriod = Ms(50);
  static constexpr double kDemandAlpha = 0.3;
  static constexpr double kDemandActiveThreshold = 0.02;

  // `contenders` is the cell's declared station count, the divisor of the contention
  // allowance: fixed up front, so a charge never depends on how many clients have
  // associated yet. `per_queue_limit` is each client's drop-tail limit (the paper splits
  // the stock 100-packet buffer), the same AP limit the other per-client qdiscs take.
  TimeBasedRegulator(sim::Simulator* sim, phy::MacTimings timings, TbrConfig config,
                     size_t contenders, size_t per_queue_limit = ap::kPerQueueLimit);

  // ap::Qdisc implementation.
  void OnAssociate(NodeId client) override;
  bool Enqueue(net::PacketPtr packet) override;
  net::PacketPtr Dequeue() override;
  bool HasEligible() const override;
  size_t QueuedPackets() const override;
  void OnTxComplete(const mac::MacFrame& frame, bool success, int attempts,
                    TimeNs airtime) override;
  void OnUplinkObserved(const mac::ExchangeRecord& record) override;

  // Weighted (QoS) shares; weights are normalized across associated clients.
  void SetWeight(NodeId client, double weight);

  // Client agent wiring (used when config.client_agent is true).
  void SetClientPauseFn(ClientPauseFn fn) { client_pause_ = std::move(fn); }

  // Introspection (tests, benches).
  TimeNs tokens(NodeId client) const;
  double rate(NodeId client) const;
  TimeNs actual_usage(NodeId client) const;
  const TbrConfig& config() const { return config_; }

  // Deterministic per-packet occupancy estimate used by the regulator.
  TimeNs EstimateOccupancy(int mac_frame_bytes, phy::WifiRate rate, int attempts) const;

 private:
  // Per-packet state: what MACTXEVENT, COMPLETEEVENT and FILLEVENT touch. It lives
  // apart from the rate state, so the dequeue scan and the per-association rate pass
  // each stride over the fields they read and no more.
  struct ClientQueue {
    net::PacketFifo packets;  // Intrusive FIFO of pooled packets.
    TimeNs tokens = 0;        // As of fill tick `synced`; TokensNow() folds in the rest.
    int64_t synced = 0;       // Fill ticks already folded into `tokens`.
    TimeNs fill = 0;          // Tokens one fill tick adds: rate * kFillPeriod.
    int32_t wake_pos = -1;    // Index in wake_, or -1 when not waiting there.
  };
  // Rate state: what ADJUSTRATEEVENT and the demand event touch.
  struct ClientState {
    double rate = 0.0;   // Fraction of channel time per unit time.
    double weight = 1.0;
    TimeNs actual = 0;            // Occupancy charged since the last ADJUSTRATEEVENT.
    double smoothed_usage = -1.0; // EWMA of actual/window; <0 = uninitialized.
    NodeId id = kInvalidNodeId;
  };

  // A backlogged client with tokens <= 0 that the fill will lift above zero, keyed by
  // the fill tick at which its bucket turns positive.
  struct Wake {
    int64_t tick;
    int32_t slot;
  };

  // Runs at the ticks Rearm() armed; every other tick only counts.
  void FillEvent();
  void AdjustRateEvent();
  void DemandEvent();
  void RecomputeFairRates();
  // Every rate write goes through here. Fills go stale (refill_due_) only when the rate
  // moves, so a rate event that changes nothing arms no tick. Callers Rearm() after.
  void SetRate(ClientState& st, double rate) {
    if (st.rate != rate) {
      st.rate = rate;
      refill_due_ = true;
    }
  }
  // Returns the client's slot, associating it on first sight.
  size_t GetOrAssociate(NodeId client);
  void Charge(NodeId client, TimeNs occupancy);
  void MaybePauseClient(size_t slot);
  bool DemandActive(size_t slot) const;

  // Fill ticks passed so far. The ticker starts with the first association, so it
  // exists wherever a client does.
  int64_t Ticks() const { return fill_->count(); }
  // Lazy fill. Every tick adds the same fill >= 0 (rates are never negative) and
  // clamps at bucket_depth, so k missed ticks are exactly one add of k * fill, clamped.
  TimeNs TokensAt(const ClientQueue& q, int64_t tick) const {
    const int64_t missed = tick - q.synced;
    return missed > 0 ? std::min(config_.bucket_depth, q.tokens + missed * q.fill)
                      : q.tokens;
  }
  TimeNs TokensNow(const ClientQueue& q) const { return TokensAt(q, Ticks()); }
  void Sync(ClientQueue& q, int64_t tick) {
    if (q.synced != tick) {
      q.tokens = TokensAt(q, tick);
      q.synced = tick;
    }
  }
  // After rates change: syncs every client to `tick` at its old fill, derives its new
  // fill and rebuilds the wake heap, in one pass at the next tick (see refill_due_).
  void Refill(int64_t tick);
  // Arms the next tick while refill_due_ is set, else the wake heap's earliest, else
  // none: the ticks at which FillEvent() has work. Runs after every change to either.
  void Rearm();

  // Wake heap upkeep. Rewake() re-keys a synced client after its tokens or queue
  // changed: in the heap exactly while it is backlogged and waiting for the fill.
  bool Waits(const ClientQueue& q) const {
    return !q.packets.empty() && q.tokens <= 0 && q.fill > 0;
  }
  // For a client synced to `tick`.
  static int64_t WakeTick(const ClientQueue& q, int64_t tick) {
    return tick + (-q.tokens) / q.fill + 1;
  }
  void Rewake(size_t slot);
  void WakeErase(size_t pos);
  void WakeSiftUp(size_t pos);
  void WakeSiftDown(size_t pos);
  void WakePlace(size_t pos, Wake wake) {
    wake_[pos] = wake;
    queues_[static_cast<size_t>(wake.slot)].wake_pos = static_cast<int32_t>(pos);
  }

  sim::Simulator* sim_;
  sim::Simulator::Ticker* fill_ = nullptr;  // Started at the first association.
  phy::MacTimings timings_;
  TbrConfig config_;
  TimeNs contenders_;  // Divisor of the contention allowance.
  size_t per_queue_limit_;
  ClientPauseFn client_pause_;

  // Client state packed in association order (which is the round-robin order), indexed
  // through slots_: the per-frame Dequeue()/HasEligible() walks are linear scans over
  // contiguous state, and per-completion Charge() is one indexed load - no tree walk
  // anywhere on the per-packet path. queues_[i] and clients_[i] are one client, and
  // clients never disassociate.
  ap::ClientSlotMap slots_;
  std::vector<ClientQueue> queues_;
  std::vector<ClientState> clients_;
  // ADJUSTRATEEVENT classification scratch, reused so the 500 ms timer allocates
  // nothing once warm.
  std::vector<ClientState*> adjust_under_;
  std::vector<ClientState*> adjust_full_;
  // Min-heap of waiting clients by wake tick; FILLEVENT pops the clients it lifts
  // above zero, so an armed tick costs O(1 + clients that turn eligible).
  std::vector<Wake> wake_;
  size_t next_ = 0;
  double total_weight_ = 0.0;  // Cached sum of weights (invariant: > 0 once non-empty).
  // Rates moved since fills were last derived. Fills only matter from the next tick
  // on, so SetRate() just sets this and that tick's Refill() catches up; the wake heap
  // is stale until then.
  bool refill_due_ = false;
  // True once an adjust/demand event has moved any rate off the static fair split.
  // While false, (re)association keeps the exact legacy RecomputeFairRates() values;
  // afterwards late joiners renormalize proportionally instead of wiping the
  // converged allocation (the late-association bugfix).
  bool rates_adjusted_ = false;
};

}  // namespace tbf::core

#endif  // TBF_CORE_TBR_H_
