/**
 * @file
 * Traffic drivers reproducing the paper's measurement methodology
 * (Section 4.1): every participating core sends a fixed batch of packets
 * as fast as the network accepts them; throughput is the batch size
 * divided by the time at which the last packet is received.
 *
 * A driver injects from inside the machine: it registers one injector
 * per chip into that chip's engine shard, after the chip's own
 * components, and each injector draws on its chip's random stream. A
 * chip's injections at cycle c therefore happen after its endpoints
 * ticked c and are seen at c+1 - the same at every lookahead window and
 * thread count. The driver component itself (Engine::add) keeps only
 * bookkeeping that is safe between windows.
 */
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "sim/component.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {

/**
 * Base of the traffic drivers: owns one injector component per chip,
 * registered into the chip's shard at construction and removed at
 * destruction (the machine must outlive the driver).
 */
class ShardedDriver : public Component
{
  public:
    ~ShardedDriver() override;

  protected:
    ShardedDriver(std::string name, Machine &machine);

    /**
     * Inject chip @p node's packets for cycle @p now (called inside the
     * chip's shard). Return false once the chip has nothing left to
     * inject: its injector then sleeps until wakeInjectors().
     */
    virtual bool injectChip(NodeId node, Cycle now) = 0;

    /** Give every injector ticks again (between windows). */
    void wakeInjectors();

    Machine &machine_;

  private:
    class Injector;
    std::vector<std::unique_ptr<Injector>> injectors_;
};

/**
 * Closed-batch driver. One logical "core" per (node, endpoint) pair; all
 * cores source packets from a single TrafficPattern, or from a blend of
 * two patterns (Figure 10) selected per packet by blend_fraction.
 */
class BatchDriver : public ShardedDriver
{
  public:
    struct Config
    {
        std::vector<EndpointId> cores; ///< participating endpoints per node
        std::uint64_t batch_size = 256;
        int size_flits = 1;
        int max_queue = 2; ///< injection-queue self-throttle per core

        /** Primary pattern and its arbiter-pattern label. */
        const TrafficPattern *pattern = nullptr;
        std::uint8_t pattern_id = 0;

        /** Optional second pattern for blending experiments. */
        const TrafficPattern *pattern2 = nullptr;
        std::uint8_t pattern2_id = 1;
        double blend_fraction2 = 0.0; ///< probability a packet uses pattern2
    };

    /** Registers the driver's progress state as a machine checkpoint
     * client, so a warm-start image carries the batch mid-flight.
     * @throws std::invalid_argument on an invalid core list. */
    BatchDriver(Machine &machine, Config cfg);
    ~BatchDriver() override;

    /** Bookkeeping only: records the batch's start cycle. */
    void tick(Cycle now) override;
    bool busy() const override { return sentTotal() < expected_; }

    /** Total packets the batch will send across all cores. */
    std::uint64_t expected() const { return expected_; }
    /** Packets sent so far (summed over the cores; between windows). */
    std::uint64_t sentTotal() const;

    /** Machine-wide delivered() count that completes the batch. */
    std::uint64_t deliveredTarget() const { return delivered_target_; }

    /** True once every batch packet has been delivered. */
    bool
    done(const Machine &m) const
    {
        return m.totalDelivered() >= delivered_target_;
    }

    /**
     * Run the batch to completion (registers nothing; call after the
     * driver is added to the engine). Returns false on timeout.
     */
    bool run(Cycle max_cycles);

    /**
     * Measured per-core throughput in packets/cycle: batch size divided by
     * the completion time, as in Section 4.1.
     */
    double throughputPerCore() const;

    Cycle startTime() const { return start_; }
    Cycle completionTime() const;

  protected:
    bool injectChip(NodeId node, Cycle now) override;

  private:
    Config cfg_;
    std::vector<EndpointAddr> core_addrs_; ///< node-major
    std::vector<std::uint64_t> sent_;      ///< per core, node-major
    std::uint64_t expected_ = 0;
    std::uint64_t delivered_target_ = 0;
    std::uint64_t base_delivered_ = 0;
    Cycle start_ = 0;
    bool started_ = false;
};

/**
 * Open-loop Bernoulli injector: each core offers a packet with probability
 * @p rate per cycle (dropped into the unbounded injection queue). Used for
 * latency-vs-load studies and the energy experiment's controlled rates.
 */
class OpenLoopDriver : public ShardedDriver
{
  public:
    struct Config
    {
        std::vector<EndpointId> cores;
        double rate = 0.01; ///< packets per core per cycle
        int size_flits = 1;
        const TrafficPattern *pattern = nullptr;
        std::uint8_t pattern_id = 0;
        std::size_t max_queue = 16; ///< drop offers beyond this backlog
    };

    /** @throws std::invalid_argument on an invalid core list. */
    OpenLoopDriver(Machine &machine, Config cfg);

    /** Nothing to keep: every offer is made in the chips' shards. */
    void tick(Cycle) override {}
    bool busy() const override { return false; }

    /** Start or stop offering (between runs). */
    void setEnabled(bool on);
    /** Packets offered so far (summed over the chips; between
     * windows). */
    std::uint64_t offered() const;

  protected:
    bool injectChip(NodeId node, Cycle now) override;

  private:
    /** One chip's offer count, padded: chips tick on different lanes. */
    struct alignas(64) ChipCount
    {
        std::uint64_t n = 0;
    };

    Config cfg_;
    std::vector<EndpointAddr> core_addrs_; ///< node-major
    std::vector<ChipCount> offered_;       ///< per chip
    bool enabled_ = true;
};

/**
 * All (node, endpoint) core addresses for a participating-endpoint list.
 * @throws std::invalid_argument if @p eps is empty or names an endpoint
 *         outside [0, endpoints per node) - so the drivers, which build
 *         their core lists here, reject such a configuration too.
 */
std::vector<EndpointAddr> makeCoreList(const Machine &m,
                                       const std::vector<EndpointId> &eps);

/** The first @p n endpoint ids, a convenient default core set. */
std::vector<EndpointId> firstEndpoints(int n);

} // namespace anton2
