/**
 * @file
 * Flow-level observability: per-hop latency span attribution, the
 * per-(src node, dst node, traffic class) flow matrix, and congestion
 * blame - the "which flows are slow, and which links do they stall on"
 * layer on top of the aggregate telemetry.
 *
 * The aggregate `machine.*.latency.*` stats give the paper's Section 4
 * three-way breakdown but cannot name the slow flows or the links they
 * wait behind. The FlowProbe closes that gap. Every router, channel
 * adapter, and endpoint is bound to its own unit at bind time (a
 * FlowSite), and accounts each unicast packet's hop where it happens -
 * arrival, arbitration grant, departure, all cycles the simulation
 * already holds, so an attached probe takes zero additional clock reads
 * and a detached one costs a single pointer test per site:
 *  - the hop's blame (packets, flits, queue wait = grant - arrival,
 *    transfer = departure - grant) is added to the unit's own counters;
 *  - the hop's span is appended, usually in 8 bytes, to the hop log
 *    the packet itself carries (a FlowHopLog, Packet::flow_hops).
 *
 * Nothing is staged or looked up per hop, and the exports still match a
 * serial window-1 run byte for byte at any thread count and lookahead
 * window: each unit's counters are touched only by the shard that ticks
 * it and are integer sums, so their order does not matter; and a
 * packet's hops leave at strictly increasing cycles (a hop across a
 * torus link lands in a later lookahead window, after a barrier), so
 * its log is already in canonical order.
 *
 * recordDelivery() (called by the destination endpoint during the
 * serial delivery flush, in canonical order) closes the flight into the
 * flow-matrix cell: packet/flit counts, latency count/sum/min/max plus a
 * log2-bucketed p99 estimate, hop-count stats, and a worst-packet
 * exemplar that takes the packet's hop log by swap. Logs are decoded
 * to FlowHopRecords only for the exports.
 *
 * Memory is bounded: flow cells are allocated on first packet (sparse
 * in the number of active (src, dst, class) pairs), a hop log is held
 * only from its packet's first hop to its delivery (then it becomes
 * the exemplar or is freed), and digest_only mode logs only sampled
 * packets and drops the per-cell exemplar paths, so a cell is a flat
 * ~200 bytes. Hop logs are observer state, never checkpointed.
 * Multicast packets are excluded (replicas share one packet id, so a
 * per-packet flight log would be ambiguous).
 */
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace anton2 {

/** The kind of unit a flow hop was recorded at. */
enum class FlowUnitKind : std::uint8_t
{
    Endpoint = 0,     ///< source endpoint injection grant
    Router,           ///< mesh router switch traversal
    Link,             ///< channel adapter torus-link egress
};

/** Snake-case kind name used in the flow exports. */
const char *flowUnitKindName(FlowUnitKind k);

/** Traffic classes the flow matrix keys on (request, reply). */
inline constexpr int kFlowTrafficClasses = 2;

struct FlowProbeConfig
{
    /** Retain Chrome-trace span paths for packets whose id falls on
     * this stride (0 = retain none). */
    std::uint64_t sample = 0;
    /** Digest list lengths (worst flows / most-blamed units). */
    std::size_t topk = 8;
    /** Drop per-cell exemplar paths and per-packet hop logs (unless
     * sampling needs them) so memory stays flat per cell. */
    bool digest_only = false;
    /** Cap on retained sampled spans; further samples are counted as
     * dropped, never silently lost. */
    std::size_t max_spans = 4096;
};

/** Unit indices a hop log can name. */
inline constexpr std::uint32_t kFlowMaxUnits = std::uint32_t{ 1 } << 19;

/**
 * A packet's hop log, in departure order. It keeps only what the packet
 * does not already hold (its id, size and birth live in the Packet), as
 * a stream of 32-bit words, so a hop usually takes 8 bytes:
 *  - a head word: the probe's unit index (which names the node, kind
 *    and unit), the output port + 1 (0 = none), the VC, and a wide bit;
 *  - one word packing three cycle offsets: the arrival from the
 *    previous hop's departure (from the packet's birth for the first
 *    logged hop; signed, as a head flit can reach the next unit before
 *    the tail leaves the last), the grant from the arrival, and the
 *    departure from the grant.
 * A hop whose offsets do not fit that word sets the wide bit and
 * carries the three offsets whole, in 16 bytes. FlowProbe::decode()
 * expands a log for the exports.
 */
class FlowHopLog
{
  public:
    bool empty() const { return words_.empty(); }
    void swap(FlowHopLog &o) noexcept
    {
        words_.swap(o.words_);
        std::swap(last_, o.last_);
    }

    /** Log one hop of a packet born at @p birth. */
    void
    append(std::uint32_t unit, int port, int vc, Cycle arrival, Cycle grant,
           Cycle depart, Cycle birth)
    {
        assert(unit < kFlowMaxUnits && port >= -1 && port < 15 && vc >= 0
               && vc < 256);
        const auto gap = static_cast<std::int64_t>(
            arrival - (words_.empty() ? birth : last_));
        const auto queue = static_cast<std::int64_t>(grant - arrival);
        const auto xfer = static_cast<std::int64_t>(depart - grant);
        last_ = depart;
        std::uint32_t head = unit
                             | static_cast<std::uint32_t>(port + 1) << kPortShift
                             | static_cast<std::uint32_t>(vc) << kVcShift;
        if (gap >= -kGapLimit && gap < kGapLimit && queue >= 0
            && queue < kQueueLimit && xfer >= 0 && xfer < kXferLimit) {
            const auto field = [](std::int64_t v, int bits, int shift) {
                return (static_cast<std::uint32_t>(v) & ((1u << bits) - 1))
                       << shift;
            };
            words_.push_back(head);
            words_.push_back(field(gap, kGapBits, 0)
                             | field(queue, kQueueBits, kGapBits)
                             | field(xfer, kXferBits, kGapBits + kQueueBits));
            return;
        }
        // Two's-complement words: exact while a flight spans fewer than
        // 2^31 cycles.
        assert(gap == static_cast<std::int32_t>(gap)
               && queue == static_cast<std::int32_t>(queue)
               && xfer == static_cast<std::int32_t>(xfer)
               && "hop offset exceeds the log's 32 bits");
        head |= kWide;
        words_.insert(words_.end(), { head, static_cast<std::uint32_t>(gap),
                                      static_cast<std::uint32_t>(queue),
                                      static_cast<std::uint32_t>(xfer) });
    }

    /** Call @p fn(unit, port, vc, arrival, grant, depart) for each hop
     * of a packet born at @p birth, in order. */
    template <class Fn>
    void
    forEach(Cycle birth, Fn &&fn) const
    {
        Cycle at = birth;
        for (std::size_t i = 0; i < words_.size();) {
            const std::uint32_t head = words_[i++];
            std::int64_t gap, queue, xfer;
            if ((head & kWide) != 0) {
                gap = static_cast<std::int32_t>(words_[i]);
                queue = static_cast<std::int32_t>(words_[i + 1]);
                xfer = static_cast<std::int32_t>(words_[i + 2]);
                i += 3;
            } else {
                const std::uint32_t w = words_[i++];
                // The gap is the word's low field: shift it to the top
                // and back to sign-extend it.
                gap = static_cast<std::int32_t>(w << (32 - kGapBits))
                      >> (32 - kGapBits);
                queue = w >> kGapBits & ((1u << kQueueBits) - 1);
                xfer = w >> (kGapBits + kQueueBits);
            }
            const Cycle arrival = at + static_cast<Cycle>(gap);
            const Cycle grant = arrival + static_cast<Cycle>(queue);
            at = grant + static_cast<Cycle>(xfer);
            fn(head & (kFlowMaxUnits - 1),
               static_cast<int>(head >> kPortShift & 0xF) - 1,
               static_cast<int>(head >> kVcShift), arrival, grant, at);
        }
    }

  private:
    // Head word: unit (bits 0-18), wide (19), port + 1 (20-23), vc (24-31).
    static constexpr std::uint32_t kWide = kFlowMaxUnits;
    static constexpr int kPortShift = 20;
    static constexpr int kVcShift = 24;
    // Packed offsets word: gap (signed), queue, transfer.
    static constexpr int kGapBits = 11;
    static constexpr int kQueueBits = 13;
    static constexpr int kXferBits = 32 - kGapBits - kQueueBits;
    static constexpr std::int64_t kGapLimit = std::int64_t{ 1 } << (kGapBits - 1);
    static constexpr std::int64_t kQueueLimit = std::int64_t{ 1 } << kQueueBits;
    static constexpr std::int64_t kXferLimit = std::int64_t{ 1 } << kXferBits;

    std::vector<std::uint32_t> words_;
    Cycle last_ = 0; ///< the last logged hop's departure
};

/**
 * One decoded per-hop span record (the export form of a logged hop).
 * `cycle` is the departure cycle.
 */
struct FlowHopRecord
{
    Cycle cycle = 0;            ///< departure (tail left the unit)
    Cycle arrival = 0;          ///< head flit buffered at the unit
    Cycle grant = 0;            ///< arbitration / injection grant
    std::uint64_t packet = 0;
    std::int32_t node = -1;     ///< chip the emitting unit sits on
    std::int16_t unit = -1;     ///< router id / adapter index / ep id
    std::int16_t port = -1;     ///< output port where meaningful
    std::int16_t size_flits = 0;
    FlowUnitKind kind = FlowUnitKind::Endpoint;
    std::uint8_t vc = 0;
};

/**
 * Delivery-side record, built by the destination endpoint during the
 * serial delivery flush. Closes out the packet's flight.
 */
struct FlowDeliveryRecord
{
    std::uint64_t packet = 0;
    std::int64_t src_node = 0;
    int src_ep = 0;
    std::int64_t dst_node = 0;
    int dst_ep = 0;
    int tc = 0;                 ///< TrafficClass as an int
    int size_flits = 0;
    int hops = 0;               ///< torus link hops (Packet::hops)
    Cycle birth = 0;            ///< packet creation (latency origin)
    Cycle delivered = 0;
};

/** Flow-matrix key: one cell per (src node, dst node, traffic class). */
struct FlowKey
{
    std::int64_t src = 0;
    std::int64_t dst = 0;
    int tc = 0;

    bool
    operator<(const FlowKey &o) const
    {
        if (src != o.src)
            return src < o.src;
        if (dst != o.dst)
            return dst < o.dst;
        return tc < o.tc;
    }
};

/** Number of log2 latency buckets backing the per-cell p99 estimate. */
inline constexpr int kFlowLatencyBuckets = 32;

/** One flow-matrix cell (allocated on the flow's first delivery). */
struct FlowCell
{
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    std::uint64_t lat_sum = 0;
    Cycle lat_min = kNoCycle;
    Cycle lat_max = 0;
    std::uint64_t hop_sum = 0;
    int hop_min = 0;
    int hop_max = 0;
    /** lat_log2[b] counts deliveries whose latency has bit-width b. */
    std::array<std::uint32_t, kFlowLatencyBuckets> lat_log2{};
    std::uint64_t worst_packet = 0;
    Cycle worst_latency = 0;
    Cycle worst_birth = 0; ///< origin of worst_path's cycle offsets
    /** Worst packet's hop log (empty in digest_only mode). */
    FlowHopLog worst_path;

    /** Upper edge of the bucket holding the 99th percentile. */
    double p99Estimate() const;
};

/** Blame key: one counter set per registered hop unit. */
struct FlowUnitKey
{
    std::int64_t node = 0;
    FlowUnitKind kind = FlowUnitKind::Endpoint;
    int unit = 0;

    bool
    operator<(const FlowUnitKey &o) const
    {
        if (node != o.node)
            return node < o.node;
        if (kind != o.kind)
            return kind < o.kind;
        return unit < o.unit;
    }
};

/** Per-unit blame counters: where packets waited, and for how long. */
struct FlowUnitBlame
{
    std::string name;             ///< e.g. `r1.2`, `x0p`, `ep3`
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;      ///< packet flits that crossed the unit
    std::uint64_t queue_wait = 0; ///< cycles between arrival and grant
    std::uint64_t xfer_cycles = 0; ///< cycles between grant and departure
};

class FlowProbe;

/**
 * One hop unit's binding to the flow probe, held by the component (see
 * FlowProbe::bindUnit). Detached - and free, past one pointer test -
 * until bound.
 */
struct FlowSite
{
    FlowProbe *probe = nullptr;
    std::uint32_t unit = 0; ///< the probe's unit index

    /**
     * Account one hop of @p pkt at this unit: its blame into the
     * unit's counters and, when the probe keeps the packet's path, its
     * span onto the packet's hop log (Packet::flow_hops). Runs in the
     * shard ticking the unit. Multicast packets are skipped. A template
     * only so this layer need not include noc/packet.hpp.
     */
    template <class PacketT>
    void hop(PacketT &pkt, Cycle arrival, Cycle grant, Cycle depart,
             int port, int vc) const;
};

/**
 * The flow probe: per-unit blame counters, the flow matrix, and the
 * sampled spans. Components account their own hops through their
 * FlowSite; the destination endpoint closes each flight with
 * recordDelivery() in the serial delivery flush.
 */
class FlowProbe
{
  public:
    /** @p num_nodes sizes the direct cell index: deliveries must name
     * nodes below it. */
    FlowProbe(const FlowProbeConfig &cfg, std::size_t num_nodes);

    const FlowProbeConfig &config() const { return cfg_; }

    /** Register (or find) a hop unit and return its binding (bind time,
     * serial). Blame counters and path rendering resolve units through
     * this table. */
    FlowSite bindUnit(std::int32_t node, FlowUnitKind kind, int unit,
                      std::string name);

    /**
     * Close a packet's flight into its flow cell (serial flush only).
     * @p path is the packet's hop log: a new worst exemplar takes it by
     * swap; either way it is left empty, its storage released.
     */
    void recordDelivery(const FlowDeliveryRecord &d, FlowHopLog &path);

    /** Expand the hop log of packet @p packet (@p size_flits flits,
     * born at @p birth). */
    std::vector<FlowHopRecord> decode(const FlowHopLog &path,
                                      std::uint64_t packet, int size_flits,
                                      Cycle birth) const;

    /** Registered unit name, or "?" when unbound. */
    const std::string &unitName(std::int64_t node, FlowUnitKind kind,
                                int unit) const;

    // --- exports -----------------------------------------------------

    /**
     * The deterministic `flows` report section: a digest of the top-K
     * worst flows (by mean latency) and most-blamed links/routers,
     * plus - when @p full_matrix - a dense num_nodes^2 matrix with one
     * row per (src, dst) pair (classes merged per pair; zero rows
     * synthesized so the row count is always num_nodes^2).
     */
    std::string reportJson(bool full_matrix, std::size_t num_nodes,
                           int indent = 2, int depth = 1) const;

    /** Sparse flow-matrix CSV: one row per active (src, dst, class). */
    std::string matrixCsv() const;

    // --- introspection (tests, Chrome-trace export) ------------------

    struct Span
    {
        FlowDeliveryRecord meta;
        std::vector<FlowHopRecord> path;
    };

    /** One registered unit's key and counters. */
    using Unit = std::pair<FlowUnitKey, FlowUnitBlame>;

    const std::map<FlowKey, FlowCell> &cells() const { return cells_; }
    /** Every registered unit, in registration (unit index) order. */
    const std::vector<Unit> &blame() const { return units_; }
    /** Delivered spans retained by the `sample` stride, in delivery
     * order (capped at max_spans; see droppedSpans()). */
    const std::vector<Span> &sampledSpans() const { return spans_; }
    std::uint64_t droppedSpans() const { return dropped_spans_; }
    std::uint64_t deliveries() const { return deliveries_; }

  private:
    friend struct FlowSite; // adds each hop's blame to its unit

    /** Whether @p packet's hops are logged (every packet, unless
     * digest_only; then only sampled ones). */
    bool
    keepPath(std::uint64_t packet) const
    {
        return !cfg_.digest_only
               || (cfg_.sample > 0 && packet % cfg_.sample == 0);
    }

    FlowProbeConfig cfg_;
    std::size_t num_nodes_;

    std::map<FlowKey, FlowCell> cells_;
    /** cells_ entries by (src * num_nodes + dst) * classes + tc; null
     * until the flow's first delivery. */
    std::vector<FlowCell *> cell_at_;
    std::vector<Unit> units_; ///< by unit index
    std::map<FlowUnitKey, std::uint32_t> unit_index_;
    std::vector<Span> spans_;
    std::uint64_t dropped_spans_ = 0;
    std::uint64_t deliveries_ = 0;
};

template <class PacketT>
void
FlowSite::hop(PacketT &pkt, Cycle arrival, Cycle grant, Cycle depart,
              int port, int vc) const
{
    if (probe == nullptr || pkt.mcast_group >= 0)
        return;
    FlowUnitBlame &b = probe->units_[unit].second;
    ++b.packets;
    b.flits += static_cast<std::uint64_t>(pkt.size_flits);
    b.queue_wait += grant >= arrival ? grant - arrival : 0;
    b.xfer_cycles += depart >= grant ? depart - grant : 0;
    if (probe->keepPath(pkt.id))
        pkt.flow_hops.append(unit, port, vc, arrival, grant, depart,
                             pkt.birth);
}

} // namespace anton2
