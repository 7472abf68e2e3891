#include "traffic/driver.hpp"

#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "debug/checkpoint.hpp"

namespace anton2 {

std::vector<EndpointAddr>
makeCoreList(const Machine &m, const std::vector<EndpointId> &eps)
{
    if (eps.empty())
        throw std::invalid_argument("empty core list");
    const int per_node = m.layout().numEndpoints();
    for (EndpointId e : eps) {
        if (e < 0 || e >= per_node) {
            throw std::invalid_argument(
                "core " + std::to_string(e) + " outside [0, "
                + std::to_string(per_node) + ") endpoints per node");
        }
    }
    std::vector<EndpointAddr> cores;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        for (EndpointId e : eps)
            cores.push_back({ n, e });
    }
    return cores;
}

std::vector<EndpointId>
firstEndpoints(int n)
{
    std::vector<EndpointId> eps(static_cast<std::size_t>(n));
    std::iota(eps.begin(), eps.end(), 0);
    return eps;
}

/** A driver's share of one chip, ticked in the chip's shard. */
class ShardedDriver::Injector final : public Component
{
  public:
    Injector(ShardedDriver &driver, NodeId node)
        : Component(driver.name() + ".n" + std::to_string(node)),
          driver_(driver), node_(node)
    {
    }

    void
    tick(Cycle now) override
    {
        if (!driver_.injectChip(node_, now))
            sleep(now);
    }

  private:
    ShardedDriver &driver_;
    NodeId node_;
};

ShardedDriver::ShardedDriver(std::string name, Machine &machine)
    : Component(std::move(name)), machine_(machine)
{
    Engine &engine = machine_.engine();
    for (NodeId n = 0; n < machine_.geom().numNodes(); ++n) {
        injectors_.push_back(std::make_unique<Injector>(*this, n));
        engine.addSharded(
            machine_.chip(n).shard(), *injectors_.back(),
            [](Component &c, Cycle now) {
                static_cast<Injector &>(c).Injector::tick(now);
            },
            HostCompClass::Other);
    }
}

ShardedDriver::~ShardedDriver()
{
    Engine &engine = machine_.engine();
    for (auto &inj : injectors_)
        engine.remove(*inj);
    engine.remove(*this);
}

void
ShardedDriver::wakeInjectors()
{
    for (auto &inj : injectors_)
        inj->wake();
}

BatchDriver::BatchDriver(Machine &machine, Config cfg)
    : ShardedDriver("batch-driver", machine), cfg_(std::move(cfg))
{
    assert(cfg_.pattern != nullptr);
    core_addrs_ = makeCoreList(machine_, cfg_.cores);
    sent_.assign(core_addrs_.size(), 0);
    expected_ = cfg_.batch_size * core_addrs_.size();
    base_delivered_ = machine_.totalDelivered();
    delivered_target_ = base_delivered_ + expected_;

    // The batch's progress rides along in machine checkpoints, so a
    // warm-start fork resumes mid-batch instead of restarting it. The
    // restoring machine must construct an identically configured driver
    // before restoreCheckpoint() (the client name pins the pairing).
    machine_.registerCheckpointClient(
        "batch-driver",
        [this](CkptWriter &w) {
            w.tag("driver.batch");
            w.u32(static_cast<std::uint32_t>(sent_.size()));
            for (std::uint64_t s : sent_)
                w.u64(s);
            w.u64(expected_);
            w.u64(delivered_target_);
            w.u64(base_delivered_);
            w.cycle(start_);
            w.b(started_);
        },
        [this](CkptReader &r) {
            r.expect("driver.batch");
            if (r.u32() != sent_.size())
                throw CheckpointError("batch-driver core count mismatch");
            for (auto &s : sent_)
                s = r.u64();
            expected_ = r.u64();
            delivered_target_ = r.u64();
            base_delivered_ = r.u64();
            start_ = r.cycle();
            started_ = r.b();
        },
        this);
}

BatchDriver::~BatchDriver()
{
    machine_.unregisterCheckpointClients(this);
}

void
BatchDriver::tick(Cycle now)
{
    if (!started_) {
        started_ = true;
        start_ = now;
    }
}

std::uint64_t
BatchDriver::sentTotal() const
{
    return std::accumulate(sent_.begin(), sent_.end(), std::uint64_t{ 0 });
}

bool
BatchDriver::injectChip(NodeId node, Cycle)
{
    Rng &rng = machine_.rng(node);
    const std::size_t per_node = cfg_.cores.size();
    bool more = false;
    for (std::size_t i = node * per_node; i < (node + 1) * per_node; ++i) {
        if (sent_[i] >= cfg_.batch_size)
            continue;
        const EndpointAddr &src = core_addrs_[i];
        auto &ep = machine_.endpoint(src);
        if (ep.injectQueueDepth(TrafficClass::Request)
            >= static_cast<std::size_t>(cfg_.max_queue)) {
            more = true;
            continue;
        }

        const bool second = cfg_.pattern2 != nullptr
                            && rng.chance(cfg_.blend_fraction2);
        const TrafficPattern &pat = second ? *cfg_.pattern2 : *cfg_.pattern;
        const std::uint8_t pat_id = second ? cfg_.pattern2_id
                                           : cfg_.pattern_id;

        const NodeId dst_node = pat.dest(src.node, rng);
        const auto dst_ep = cfg_.cores[rng.below(cfg_.cores.size())];
        machine_.send(machine_.makeWrite(src, { dst_node, dst_ep }, pat_id,
                                         cfg_.size_flits));
        if (++sent_[i] < cfg_.batch_size)
            more = true;
    }
    return more;
}

bool
BatchDriver::run(Cycle max_cycles)
{
    // A tripped watchdog ends the run early (RunSpec's default): the
    // machine is wedged, and the trip snapshot has the story.
    return machine_.run(RunSpec::untilDelivered(delivered_target_,
                                                max_cycles))
               .reason
           == StopReason::Delivered;
}

Cycle
BatchDriver::completionTime() const
{
    return machine_.lastDeliveryTime() - start_;
}

double
BatchDriver::throughputPerCore() const
{
    const Cycle t = completionTime();
    if (t == 0)
        return 0.0;
    return static_cast<double>(cfg_.batch_size) / static_cast<double>(t);
}

OpenLoopDriver::OpenLoopDriver(Machine &machine, Config cfg)
    : ShardedDriver("open-loop-driver", machine), cfg_(std::move(cfg))
{
    assert(cfg_.pattern != nullptr);
    core_addrs_ = makeCoreList(machine_, cfg_.cores);
    offered_.resize(machine_.geom().numNodes());
}

void
OpenLoopDriver::setEnabled(bool on)
{
    enabled_ = on;
    if (on)
        wakeInjectors();
}

std::uint64_t
OpenLoopDriver::offered() const
{
    std::uint64_t total = 0;
    for (const ChipCount &c : offered_)
        total += c.n;
    return total;
}

bool
OpenLoopDriver::injectChip(NodeId node, Cycle)
{
    if (!enabled_)
        return false;
    Rng &rng = machine_.rng(node);
    const std::size_t per_node = cfg_.cores.size();
    for (std::size_t i = node * per_node; i < (node + 1) * per_node; ++i) {
        if (!rng.chance(cfg_.rate))
            continue;
        const EndpointAddr &src = core_addrs_[i];
        auto &ep = machine_.endpoint(src);
        if (ep.injectQueueDepth(TrafficClass::Request) >= cfg_.max_queue)
            continue;
        const NodeId dst_node = cfg_.pattern->dest(src.node, rng);
        const auto dst_ep = cfg_.cores[rng.below(cfg_.cores.size())];
        machine_.send(machine_.makeWrite(src, { dst_node, dst_ep },
                                         cfg_.pattern_id,
                                         cfg_.size_flits));
        ++offered_[node].n;
    }
    return true;
}

} // namespace anton2
