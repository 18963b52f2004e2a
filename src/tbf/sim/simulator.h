// Discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and an event queue of callbacks. Events scheduled for
// the same instant fire in scheduling order (FIFO), which keeps runs deterministic for a
// given seed.
//
// Hot-path design (every simulated frame schedules several events, so this is the
// simulator's central perf artifact):
//   * Callbacks are InlineCallback - captures are constructed directly into a pooled,
//     chunked slab slot (never on the heap; captures over 48 bytes fail to compile) and
//     invoked in place: chunks have stable addresses, so firing needs no copy even when
//     the callback schedules new events.
//   * Slot bookkeeping (timestamp, FIFO sequence, generation tag, intrusive queue link)
//     lives in a packed metadata array; Cancel touches one metadata record, no hashing.
//   * EventIds are generation-tagged slab handles: Cancel is an O(1) flag write, and
//     stale ids (already fired, currently firing, or cancelled twice) are rejected by a
//     generation/flag check, so the pending count can never drift.
//   * The ready queue is a timing wheel: events within a ~17 ms horizon of now are
//     linked (intrusively, through their metadata record) into one of 4096 buckets of
//     4.096 us each; non-empty buckets are tracked in a bitmap. Draining a bucket
//     gathers its list into a single reused scratch vector and sorts it once, so in
//     steady state the whole queue performs zero heap allocations. Events beyond the
//     horizon go into a binary-heap overflow that migrates into the wheel as the clock
//     advances: MAC/PHY deltas (slots, IFS, frame airtimes) land in the wheel; only
//     coarse timers (TCP RTO, TBR adjust) ever touch the overflow heap.
//
// Ordering invariant the wheel relies on: every queued event satisfies when >= now, so
// wheel events span at most one revolution ([bucket(now), bucket(now) + kBuckets)) and a
// circular bitmap scan from bucket(now) finds the earliest bucket; after draining the
// overflow of entries inside the horizon, any remaining overflow entry is in a strictly
// later bucket than every wheel entry, so wheel-first pop order is globally correct.
//
// Tickers. A Ticker is a periodic tick that is never queued; it runs its callback only
// at ticks its owner has armed, and every other tick costs the loop one compare. Its
// ticks keep exactly the place in the event order that a self-rescheduling event
// (`Schedule(period, f)` at start, and again as the callback's last act) would have:
//   * StartTicker at time t0 takes one FIFO sequence number, as that Schedule call
//     would; tick k falls at t0 + k * period.
//   * Tick k sorts after every event scheduled before tick k - 1 passed and before
//     every event scheduled after it: a tick takes its successor's sequence number as
//     it passes, and an armed tick only after its callback has run, so events the
//     callback schedules sort before the next tick.
//   * The loop passes ticks lazily but at their place: before it fires an entry that
//     sorts after the earliest pending tick, it passes the unarmed ticks ahead of that
//     entry in O(1) - count += n, one fresh sequence number (nothing runs between them,
//     so the numbers they would have taken one by one are never compared). An armed
//     tick is a candidate like a queued entry: when it sorts first (or nothing queued is
//     left within the bound) the loop sets now to its time, counts it and runs it.
//   * RunUntil(until) passes every tick at or before `until` before it returns, so
//     events injected between calls sort after them. Several tickers on one Simulator
//     pass in (time, sequence) order.
//   * Ticks are not events: pending_events() and IsIdle() see queued events only, and
//     the loop's return value counts queued events fired plus armed ticks run.
// Nothing is allocated until a ticker starts, and nothing in steady state.
#ifndef TBF_SIM_SIMULATOR_H_
#define TBF_SIM_SIMULATOR_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tbf/sim/inline_callback.h"
#include "tbf/util/logging.h"
#include "tbf/util/units.h"

namespace tbf::sim {

// Opaque handle: slab slot in the high 32 bits, generation tag in the low 32 bits.
// Generations start at 1, so no valid id equals kInvalidEventId.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  using Callback = InlineCallback;

  // A periodic tick owned by the Simulator (see the header comment). Its address is
  // stable for the Simulator's lifetime, also when other tickers start.
  class Ticker {
   public:
    Ticker(const Ticker&) = delete;
    Ticker& operator=(const Ticker&) = delete;

    // Ticks passed so far; the one running (if any) included.
    int64_t count() const { return count_; }
    // Runs the callback at tick `tick`, or at the next one if `tick` has passed. Running
    // disarms the ticker; the callback re-arms it to run again.
    void Arm(int64_t tick) { armed_ = tick; }
    void Disarm() { armed_ = kUnarmed; }

   private:
    friend class Simulator;
    static constexpr int64_t kUnarmed = INT64_MAX;

    Ticker(TimeNs when, uint64_t seq, TimeNs period)
        : when_(when), seq_(seq), period_(period) {}

    // Ticks before the first armed one; <= 0 when the next tick is armed.
    int64_t Unarmed() const { return armed_ - count_ - 1; }

    TimeNs when_;    // Tick count_ + 1.
    uint64_t seq_;   // Its FIFO sequence number.
    TimeNs period_;
    int64_t count_ = 0;
    int64_t armed_ = kUnarmed;
    Callback callback_;
  };

  Simulator() { bucket_heads_.assign(kBuckets, kNoSlot); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Starts a ticker whose tick k falls at Now() + k * period. It starts unarmed.
  template <typename F>
  Ticker* StartTicker(TimeNs period, F&& f) {
    TBF_CHECK(period > 0) << "ticker period must be positive, got " << period;
    tickers_.push_back(
        std::unique_ptr<Ticker>(new Ticker(now_ + period, next_seq_++, period)));
    Ticker* ticker = tickers_.back().get();
    ticker->callback_.Emplace(std::forward<F>(f));
    UpdateNextTick();
    return ticker;
  }

  // Schedules `f` to run `delay` from now. Negative delays clamp to zero.
  template <typename F>
  EventId Schedule(TimeNs delay, F&& f) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::forward<F>(f));
  }

  // Schedules `f` at absolute time `when`; times in the past clamp to Now(). The
  // callable is constructed directly into its slab slot (no intermediate moves).
  template <typename F>
  EventId ScheduleAt(TimeNs when, F&& f) {
    if (when < now_) {
      when = now_;
    }
    uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = meta_[slot].next;
    } else {
      slot = static_cast<uint32_t>(meta_.size());
      meta_.emplace_back();
      meta_[slot].generation = 1;
      if ((slot & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<CallbackChunk>());
      }
    }
    SlotMeta& meta = meta_[slot];
    meta.when = when;
    meta.seq = next_seq_++;
    CallbackAt(slot)->Emplace(std::forward<F>(f));
    const EventId id = MakeId(slot, meta.generation);
    Enqueue(slot, meta);
    ++live_events_;
    return id;
  }

  // Cancels a pending event: an O(1) flag write on the packed metadata. Cancelling an
  // already-fired, currently-firing, already-cancelled or invalid id is a no-op
  // (detected via the generation tag / flag). Like the callback itself, captured
  // resources are released when the queue entry pops, not at Cancel time.
  void Cancel(EventId id) {
    if (id == kInvalidEventId) {
      return;
    }
    const uint32_t slot = SlotOf(id);
    if (slot >= meta_.size()) {
      return;
    }
    SlotMeta& meta = meta_[slot];
    if (meta.generation != GenerationOf(id)) {
      return;
    }
    meta.generation |= kCancelledBit;
    --live_events_;
  }

  // Runs events until the queue is empty or the clock passes `until` (inclusive), and
  // passes every tick at or before `until`. Returns the number of events executed,
  // armed ticks included.
  int64_t RunUntil(TimeNs until) {
    const int64_t executed = RunLoop(until);
    if (now_ < until && !stopped_) {
      now_ = until;
    }
    stopped_ = false;
    return executed;
  }

  // Runs every pending event regardless of timestamp, and every armed tick; unarmed
  // ticks pass only up to the last of them.
  int64_t RunUntilIdle() {
    const int64_t executed = RunLoop(kMaxTime);
    stopped_ = false;
    return executed;
  }

  // Makes the currently running RunUntil/RunUntilIdle return after the active callback.
  void Stop() { stopped_ = true; }

  bool IsIdle() const { return live_events_ == 0; }

  size_t pending_events() const { return live_events_; }

  // Introspection for pool-reuse tests: slots ever allocated (steady state: constant).
  size_t event_pool_slots() const { return meta_.size(); }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr TimeNs kMaxTime = INT64_MAX;
  // Generation tags use the low 31 bits; the top bit marks a cancelled pending event.
  // MakeId strips the flag, so a cancelled slot never matches a caller-held id.
  static constexpr uint32_t kCancelledBit = uint32_t{1} << 31;
  static constexpr uint32_t kGenerationMask = kCancelledBit - 1;

  // Wheel geometry: 4096 buckets x 4.096 us = ~16.8 ms horizon.
  static constexpr int kWidthBits = 12;
  static constexpr int kBucketBits = 12;
  static constexpr size_t kBuckets = size_t{1} << kBucketBits;
  static constexpr size_t kBucketMask = kBuckets - 1;
  static constexpr size_t kBitmapWords = kBuckets / 64;

  // Callback slab chunk: 512 slots x 64 bytes. Chunk addresses are stable, which lets
  // Fire() invoke callbacks in place while they schedule into (and grow) the slab.
  static constexpr int kChunkBits = 9;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kChunkMask = kChunkSize - 1;
  struct CallbackChunk {
    Callback slots[kChunkSize];
  };

  struct SlotMeta {
    TimeNs when = 0;
    uint64_t seq = 0;           // FIFO tie-break for equal timestamps.
    uint32_t generation = 1;    // Low 31 bits; kCancelledBit while cancelled-but-queued.
    uint32_t next = kNoSlot;    // Free-list link, or intrusive bucket-list link.
  };

  struct QEntry {
    TimeNs when;
    uint64_t seq;
    uint32_t slot;
  };

  static EventId MakeId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | (generation & kGenerationMask);
  }
  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id >> 32); }
  static uint32_t GenerationOf(EventId id) { return static_cast<uint32_t>(id); }

  static bool Earlier(const QEntry& a, const QEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  // Orders later entries first: sorts the scratch vector descending (pops come off the
  // back) and doubles as the max-heap comparator std::push_heap/pop_heap expect for a
  // min-heap overflow. Keep a single comparator so the two orders can never diverge.
  struct Descending {
    bool operator()(const QEntry& a, const QEntry& b) const { return Earlier(b, a); }
  };

  static int64_t BucketOf(TimeNs when) { return when >> kWidthBits; }

  Callback* CallbackAt(uint32_t slot) {
    return &chunks_[slot >> kChunkBits]->slots[slot & kChunkMask];
  }

  void Enqueue(uint32_t slot, SlotMeta& meta) {
    const int64_t ab = BucketOf(meta.when);
    if (ab - BucketOf(now_) >= static_cast<int64_t>(kBuckets)) {
      overflow_.push_back(QEntry{meta.when, meta.seq, slot});
      std::push_heap(overflow_.begin(), overflow_.end(), Descending{});
      return;
    }
    ++wheel_count_;
    if (ab == open_bucket_ && !scratch_.empty()) {
      // This bucket is mid-drain; keep the scratch sorted (descending).
      const QEntry e{meta.when, meta.seq, slot};
      scratch_.insert(std::upper_bound(scratch_.begin(), scratch_.end(), e, Descending{}),
                      e);
      return;
    }
    const size_t index = static_cast<size_t>(ab) & kBucketMask;
    meta.next = bucket_heads_[index];
    bucket_heads_[index] = slot;
    MarkNonEmpty(index);
  }

  void MarkNonEmpty(size_t index) { bitmap_[index >> 6] |= uint64_t{1} << (index & 63); }
  void MarkEmpty(size_t index) { bitmap_[index >> 6] &= ~(uint64_t{1} << (index & 63)); }

  // First non-empty bucket in circular order starting at bucket(now). Assumes the wheel
  // holds at least one entry.
  size_t FindEarliestBucket() const {
    const size_t start = static_cast<size_t>(BucketOf(now_)) & kBucketMask;
    const size_t start_word = start >> 6;
    uint64_t word = bitmap_[start_word] & (~uint64_t{0} << (start & 63));
    if (word != 0) {
      return (start_word << 6) + static_cast<size_t>(std::countr_zero(word));
    }
    for (size_t k = 1; k <= kBitmapWords; ++k) {
      const size_t i = (start_word + k) & (kBitmapWords - 1);
      word = bitmap_[i];
      if (i == start_word) {
        word &= ~(~uint64_t{0} << (start & 63));  // Wrapped: low bits of the start word.
      }
      if (word != 0) {
        return (i << 6) + static_cast<size_t>(std::countr_zero(word));
      }
    }
    return start;  // Unreachable while wheel_count_ > 0.
  }

  // Migrates overflow entries that fell inside the horizon as the clock advanced.
  void DrainOverflow() {
    const int64_t limit = BucketOf(now_) + static_cast<int64_t>(kBuckets);
    while (!overflow_.empty() && BucketOf(overflow_.front().when) < limit) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Descending{});
      const QEntry e = overflow_.back();
      overflow_.pop_back();
      SlotMeta& meta = meta_[e.slot];
      meta.when = e.when;  // Unchanged; restated for clarity.
      meta.seq = e.seq;
      Enqueue(e.slot, meta);
    }
  }

  // Opens bucket `index`: gathers its intrusive list into the scratch vector and sorts
  // it descending, so pops come off the back in (when, seq) order. If a previous open
  // bucket still has undrained entries (a bounded run stopped early and something
  // earlier arrived since), its scratch contents are relinked first.
  void OpenBucket(size_t index, int64_t ab) {
    if (!scratch_.empty() && open_bucket_ != ab) {
      const size_t old_index = static_cast<size_t>(open_bucket_) & kBucketMask;
      for (const QEntry& e : scratch_) {
        meta_[e.slot].next = bucket_heads_[old_index];
        bucket_heads_[old_index] = e.slot;
      }
      scratch_.clear();
    }
    open_bucket_ = ab;
    uint32_t head = bucket_heads_[index];
    bucket_heads_[index] = kNoSlot;
    while (head != kNoSlot) {
      const SlotMeta& meta = meta_[head];
      scratch_.push_back(QEntry{meta.when, meta.seq, head});
      head = meta.next;
    }
    std::sort(scratch_.begin(), scratch_.end(), Descending{});
  }

  // Fires queued events in (when, seq) order while their timestamp is <= bound, and
  // passes the ticks between them. The inner loop drains one bucket at a time: while
  // events of bucket B fire, now_ sits inside B, so no new event can land in an earlier
  // bucket and no overflow entry can become eligible - the bucket open/sort happens once
  // per bucket, not once per event. An armed tick breaks that: it may sit in an earlier
  // bucket and schedule there, so after one runs the loop looks for the earliest bucket
  // again.
  int64_t RunLoop(TimeNs bound) {
    int64_t executed = 0;
    while (!stopped_) {
      if (!overflow_.empty()) {
        DrainOverflow();
      }
      if (wheel_count_ == 0) {
        // Beyond-horizon region: pop straight off the overflow heap (rare; the clock
        // jump re-enables wheel admission for whatever follows).
        if (overflow_.empty() || overflow_.front().when > bound) {
          if (!PassTicksThrough(bound)) {
            break;
          }
          ++executed;
          continue;
        }
        const QEntry entry = overflow_.front();
        if (Earlier(next_tick_, entry) && PassTicks(entry)) {
          ++executed;
          continue;
        }
        std::pop_heap(overflow_.begin(), overflow_.end(), Descending{});
        overflow_.pop_back();
        executed += Fire(entry);
        continue;
      }
      const size_t index = FindEarliestBucket();
      const int64_t start = BucketOf(now_);
      const size_t offset =
          (index - (static_cast<size_t>(start) & kBucketMask)) & kBucketMask;
      const int64_t ab = start + static_cast<int64_t>(offset);
      if (scratch_.empty() || open_bucket_ != ab) {
        OpenBucket(index, ab);
      }
      bool past_bound = false;
      while (!scratch_.empty()) {
        const QEntry entry = scratch_.back();
        if (entry.when > bound) {
          past_bound = true;
          break;
        }
        if (Earlier(next_tick_, entry) && PassTicks(entry)) {
          ++executed;
          break;
        }
        scratch_.pop_back();
        --wheel_count_;
        executed += Fire(entry);
        if (stopped_) {
          break;
        }
      }
      // A callback may have pushed a fresh entry onto this bucket's list while the
      // scratch was momentarily empty; only clear the bit when both are empty.
      if (scratch_.empty() && bucket_heads_[index] == kNoSlot) {
        MarkEmpty(index);
      }
      if (past_bound) {
        if (!PassTicksThrough(bound)) {
          break;
        }
        ++executed;
      }
    }
    return executed;
  }

  static QEntry TickOf(const Ticker& ticker) {
    return QEntry{ticker.when_, ticker.seq_, kNoSlot};
  }

  void UpdateNextTick() {
    next_ticker_ = tickers_.front().get();
    for (const std::unique_ptr<Ticker>& ticker : tickers_) {
      if (Earlier(TickOf(*ticker), TickOf(*next_ticker_))) {
        next_ticker_ = ticker.get();
      }
    }
    next_tick_ = TickOf(*next_ticker_);
  }

  // Passes the ticks that sort before `limit` in (time, seq) order: each ticker's run
  // of unarmed ticks at once, up to the next other ticker's tick. Stops after running
  // the first armed tick it reaches and returns true; false when none ran.
  bool PassTicks(const QEntry& limit) {
    while (Earlier(next_tick_, limit)) {
      Ticker& t = *next_ticker_;
      QEntry stop = limit;
      for (const std::unique_ptr<Ticker>& other : tickers_) {
        if (other.get() != &t && Earlier(TickOf(*other), stop)) {
          stop = TickOf(*other);
        }
      }
      // Ticks after the first take fresh sequence numbers, later than every queued
      // entry's and pending tick's: they sort before `stop` while earlier in time, and
      // at its time only when `stop` is an open bound (sequence number past them all).
      const TimeNs gap = stop.when - t.when_;
      const int64_t more = next_seq_ < stop.seq ? gap / t.period_
                           : gap > 0            ? (gap - 1) / t.period_
                                                : 0;
      const int64_t unarmed = t.Unarmed();
      if (unarmed > more) {
        t.count_ += more + 1;
        t.when_ += (more + 1) * t.period_;
        t.seq_ = next_seq_++;
        UpdateNextTick();
        continue;
      }
      if (unarmed > 0) {
        t.count_ += unarmed;
        t.when_ += unarmed * t.period_;
      }
      now_ = t.when_;
      ++t.count_;
      t.armed_ = Ticker::kUnarmed;
      t.callback_();
      t.when_ += t.period_;
      t.seq_ = next_seq_++;
      UpdateNextTick();
      return true;
    }
    return false;
  }

  // With nothing queued left within `bound`: passes the ticks at or before it and runs
  // the first armed one among them. Without a bound, unarmed ticks pass only up to the
  // earliest armed one. Returns whether an armed tick ran.
  bool PassTicksThrough(TimeNs bound) {
    if (bound == kMaxTime) {
      TimeNs armed = kMaxTime;
      for (const std::unique_ptr<Ticker>& t : tickers_) {
        const int64_t unarmed = std::max<int64_t>(t->Unarmed(), 0);
        if (t->armed_ != Ticker::kUnarmed &&
            unarmed < (kMaxTime - t->when_) / t->period_) {
          armed = std::min(armed, t->when_ + unarmed * t->period_);
        }
      }
      if (armed == kMaxTime) {
        return false;
      }
      bound = armed;
    }
    return PassTicks(QEntry{bound, UINT64_MAX, kNoSlot});
  }

  // Fires `entry` unless its slot was cancelled. Returns events executed (0 or 1).
  int64_t Fire(const QEntry& entry) {
    SlotMeta& meta = meta_[entry.slot];
    const bool cancelled = (meta.generation & kCancelledBit) != 0;
    // Retire the id before running: a callback cancelling the event that is currently
    // firing (or a stale handle) must be a no-op, not a pending-count decrement.
    meta.generation = (meta.generation + 1) & kGenerationMask;
    if (meta.generation == 0) {
      meta.generation = 1;  // Keep ids distinct from kInvalidEventId after wrap.
    }
    if (cancelled) {
      ReleaseSlot(entry.slot);
      return 0;
    }
    --live_events_;
    now_ = entry.when;
    // In place: chunks are stable, so the callback may schedule (growing meta_ and
    // chunks_) while it runs. meta_ may reallocate, so re-derive pointers afterwards.
    (*CallbackAt(entry.slot))();
    ReleaseSlot(entry.slot);
    return 1;
  }

  void ReleaseSlot(uint32_t slot) {
    CallbackAt(slot)->Reset();
    SlotMeta& meta = meta_[slot];
    meta.next = free_head_;
    free_head_ = slot;
  }

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_events_ = 0;
  bool stopped_ = false;

  uint32_t free_head_ = kNoSlot;
  std::vector<SlotMeta> meta_;
  std::vector<std::unique_ptr<CallbackChunk>> chunks_;

  std::vector<uint32_t> bucket_heads_;
  uint64_t bitmap_[kBitmapWords] = {};
  size_t wheel_count_ = 0;
  int64_t open_bucket_ = -1;        // Absolute bucket index the scratch belongs to.
  std::vector<QEntry> scratch_;     // Sorted (descending) entries of the open bucket.
  std::vector<QEntry> overflow_;

  std::vector<std::unique_ptr<Ticker>> tickers_;
  // The earliest pending tick, or a key that sorts after every entry while none runs.
  QEntry next_tick_{kMaxTime, UINT64_MAX, kNoSlot};
  Ticker* next_ticker_ = nullptr;
};

}  // namespace tbf::sim

#endif  // TBF_SIM_SIMULATOR_H_
