/**
 * @file
 * Fixed-latency, single-value-per-cycle communication channels.
 *
 * All inter-component communication in the simulator flows through Wire<T>
 * delay lines with latency >= 1 cycle. Because a value sent at cycle t is
 * visible no earlier than cycle t+1, components may be evaluated in any
 * order within a cycle and the simulation remains deterministic.
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/types.hpp"

namespace anton2 {

/** How a wire's sends reach a sleeping receiver (Wire::setReceiver). */
enum class WakePath : std::uint8_t
{
    Local,  ///< sender and receiver tick on the same engine shard
    Remote, ///< the wire crosses shards (a torus link)
};

/**
 * A unidirectional delay line carrying at most one value of type T per
 * cycle. Values sent at cycle t are receivable exactly at cycle t+latency.
 *
 * Implemented as a ring buffer of slots indexed by delivery cycle; each
 * slot keeps its delivery cycle beside its value, so a poll touches one
 * slot. An in-flight count (values sent minus values taken) lets polls
 * of an empty wire - the common case - return without indexing the ring
 * at all, and makes busy() O(1).
 *
 * The count is kept as two single-writer counters: the sender bumps one,
 * the receiver the other. A wire that crosses engine shards is sent and
 * taken from two threads inside a lookahead window; neither counter then
 * has two writers, and a receiver that reads a stale send count only
 * misses values that are not deliverable before the next window anyway
 * (see Wire's slack parameter), so relaxed atomics suffice.
 *
 * A wire may name its receiver (setReceiver): every send then wakes it,
 * which is how a sleeping component learns that work is on its way.
 */
template <typename T>
class Wire
{
  public:
    /**
     * @param latency Delivery delay in cycles; must be >= 1.
     * @param slack Extra ring slots beyond latency+1. A wire crossing
     *        engine shards that tick in lookahead windows of up to w
     *        cycles needs slack >= w-1: the sender may run w cycles ahead
     *        of the receiver within one window, so up to latency+w
     *        deliveries are live at once. Intra-shard wires (strictly
     *        cycle-by-cycle on one lane) keep the default 0.
     */
    explicit Wire(Cycle latency = 1, Cycle slack = 0)
        : latency_(latency), slots_(ringSize(latency, slack))
    {
        assert(latency >= 1 && "zero-latency wires would make evaluation "
                               "order-dependent");
    }

    Cycle latency() const { return latency_; }

    /**
     * Wake @p receiver on every send, through @p path: Local for a
     * receiver on the sender's shard, Remote for a wire that crosses
     * shards. The components' connect calls bind this.
     */
    void
    setReceiver(Component &receiver, WakePath path = WakePath::Local)
    {
        receiver_ = &receiver;
        remote_ = path == WakePath::Remote;
    }

    /**
     * Send a value at cycle @p now; it becomes visible at now+latency.
     * At most one value may be sent per cycle.
     */
    void
    send(Cycle now, T value)
    {
        Slot &slot = slots_[index(now + latency_)];
        assert(!slot.value.has_value() && "wire driven twice in one cycle");
        if (!slot.value.has_value())
            bump(sends_);
        slot.value = std::move(value);
        slot.at = now + latency_;
        if (receiver_ != nullptr) {
            if (remote_)
                receiver_->wakeRemote();
            else
                receiver_->wake();
        }
    }

    /** True if a value is deliverable at cycle @p now. */
    bool
    pending(Cycle now) const
    {
        if (!busy())
            return false;
        // The delivery-cycle tag prevents reading a value early when a
        // receiver was not polling on earlier cycles (slot aliasing).
        const Slot &slot = slots_[index(now)];
        return slot.at == now && slot.value.has_value();
    }

    /** Consume and return the value deliverable at cycle @p now, if any. */
    std::optional<T>
    take(Cycle now)
    {
        if (!busy())
            return std::nullopt;
        Slot &slot = slots_[index(now)];
        if (slot.at != now || !slot.value.has_value())
            return std::nullopt;
        std::optional<T> out = std::move(slot.value);
        slot.value.reset();
        bump(takes_);
        return out;
    }

    /**
     * Values sent and not yet taken, including any whose delivery cycle
     * passed without a take (they stay in their slot until taken or
     * cleared, exactly as busy() reports them).
     */
    std::size_t
    inFlight() const
    {
        return static_cast<std::size_t>(
            sends_.load(std::memory_order_relaxed)
            - takes_.load(std::memory_order_relaxed));
    }

    /** True if any value is still in flight; used for quiescence. */
    bool busy() const { return inFlight() != 0; }

    /**
     * Visit every value still in flight, in unspecified order. Read-only:
     * the runtime auditor uses this to count in-transit flits and credits
     * for its conservation checks; O(latency).
     */
    template <typename Fn>
    void
    forEachInFlight(Fn &&fn) const
    {
        for (const Slot &slot : slots_) {
            if (slot.value.has_value())
                fn(*slot.value);
        }
    }

    /**
     * Visit every in-flight value with its absolute delivery cycle, in
     * ring order. The ring order is a pure function of the delivery
     * cycles (slot index = cycle mod ring size), so it is deterministic
     * across runs; checkpointing iterates with this.
     */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        for (const Slot &slot : slots_) {
            if (slot.value.has_value())
                fn(slot.at, *slot.value);
        }
    }

    /** Number of ring slots (latency + slack + 1); checkpoint invariant. */
    std::size_t ringSlots() const { return slots_.size(); }

    /** Drop every in-flight value (checkpoint restore starts clean). */
    void
    clearAll()
    {
        for (Slot &slot : slots_) {
            slot.value.reset();
            slot.at = kNoCycle;
        }
        sends_.store(0, std::memory_order_relaxed);
        takes_.store(0, std::memory_order_relaxed);
    }

    /**
     * Reinstate one in-flight value at its absolute delivery cycle, as
     * recorded by forEachSlot. Keeping the absolute cycle keeps the ring
     * index consistent with the restored engine clock.
     */
    void
    restoreSlot(Cycle deliver_at, T value)
    {
        Slot &slot = slots_[index(deliver_at)];
        assert(!slot.value.has_value() && "restore into occupied slot");
        if (!slot.value.has_value())
            bump(sends_);
        slot.value = std::move(value);
        slot.at = deliver_at;
    }

  private:
    struct Slot
    {
        Cycle at = kNoCycle; ///< delivery cycle of `value`
        std::optional<T> value;
    };

    static std::size_t
    ringSize(Cycle latency, Cycle slack)
    {
        // One slot per in-flight cycle plus the current one, plus the
        // window slack (see the constructor).
        return static_cast<std::size_t>(latency + slack) + 1;
    }

    /** Single-writer increment (see the class comment). */
    static void
    bump(std::atomic<std::uint64_t> &counter)
    {
        counter.store(counter.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    }

    std::size_t
    index(Cycle c) const
    {
        return static_cast<std::size_t>(c % slots_.size());
    }

    Cycle latency_;
    std::vector<Slot> slots_;
    Component *receiver_ = nullptr; ///< woken on send (may be null)
    bool remote_ = false;
    std::atomic<std::uint64_t> sends_{ 0 }; ///< written by the sender only
    std::atomic<std::uint64_t> takes_{ 0 }; ///< written by the receiver only
};

} // namespace anton2
