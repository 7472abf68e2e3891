#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sim/thread_pool.hpp"

namespace anton2 {

namespace {

void
virtualTick(Component &c, Cycle now)
{
    c.tick(now);
}

/** The shard and cycle the calling thread is ticking (Engine::cycle,
 * Engine::tickingShard); kNoCycle / kNoShard outside a shard tick. */
thread_local Cycle tls_cycle = kNoCycle;
thread_local std::size_t tls_shard = Engine::kNoShard;

} // namespace

Engine::Engine() = default;

Engine::~Engine() = default;

void
Engine::add(Component &c)
{
    components_.push_back(&c);
}

void
Engine::remove(Component &c)
{
    components_.erase(
        std::remove(components_.begin(), components_.end(), &c),
        components_.end());
    for (Shard &shard : shards_) {
        const auto it = std::find_if(
            shard.entries.begin(), shard.entries.end(),
            [&c](const Entry &e) { return e.c == &c; });
        if (it == shard.entries.end())
            continue;
        shard.entries.erase(it);
        c.act_ = Component::Activity{};
        class_runs_dirty_ = true;
        activity_dirty_ = true;
    }
}

Cycle
Engine::cycle() const
{
    return tls_cycle != kNoCycle ? tls_cycle : now_;
}

std::size_t
Engine::tickingShard()
{
    return tls_shard;
}

std::size_t
Engine::newShard()
{
    shards_.emplace_back();
    lanes_dirty_ = true;
    activity_dirty_ = true;
    return shards_.size() - 1;
}

void
Engine::addSharded(std::size_t shard, Component &c, TickFn fn,
                   HostCompClass cls)
{
    assert(shard < shards_.size() && "newShard() first");
    shards_[shard].entries.push_back(
        { &c, fn != nullptr ? fn : &virtualTick, cls });
    class_runs_dirty_ = true;
    activity_dirty_ = true;
}

void
Engine::bindActivity()
{
    // Registration may follow a run: settle every sleeper against the
    // old masks before they are rebuilt.
    wakeAll();
    activity_dirty_ = false;
    std::size_t words = 0;
    for (Shard &shard : shards_) {
        const std::size_t n = shard.entries.size();
        shard.awake.assign((n + 63) / 64, ~std::uint64_t{ 0 });
        if (n % 64 != 0)
            shard.awake.back() = (std::uint64_t{ 1 } << (n % 64)) - 1;
        shard.inbox = words;
        words += shard.awake.size();
    }
    inbox_ = std::make_unique<std::atomic<std::uint64_t>[]>(words); // zeroed
    for (Shard &shard : shards_) {
        for (std::size_t i = 0; i < shard.entries.size(); ++i) {
            Component::Activity &act = shard.entries[i].c->act_;
            act.awake = &shard.awake[i / 64];
            act.inbox = &inbox_[shard.inbox + i / 64];
            act.bit = std::uint64_t{ 1 } << (i % 64);
            act.slept_at = kNoCycle;
        }
    }
}

void
Engine::foldInbox()
{
    for (Shard &shard : shards_) {
        for (std::size_t k = 0; k < shard.awake.size(); ++k) {
            std::atomic<std::uint64_t> &word = inbox_[shard.inbox + k];
            if (word.load(std::memory_order_relaxed) != 0)
                shard.awake[k] |=
                    word.exchange(0, std::memory_order_relaxed);
        }
    }
}

void
Engine::wakeAll()
{
    if (inbox_ == nullptr)
        return; // never bound: everything is awake
    foldInbox();
    for (Shard &shard : shards_) {
        for (const Entry &e : shard.entries) {
            if (e.c->act_.awake == nullptr)
                continue; // registered after the last bind
            if (e.c->act_.slept_at != kNoCycle)
                e.c->resume(now_);
            e.c->wake();
        }
    }
}

void
Engine::settle()
{
    if (inbox_ == nullptr)
        return; // never bound: nothing sleeps
    for (Shard &shard : shards_) {
        for (const Entry &e : shard.entries)
            e.c->settle(now_);
    }
}

std::size_t
Engine::awakeCount() const
{
    if (activity_dirty_)
        return componentCount() - components_.size();
    std::size_t n = 0;
    for (const Shard &shard : shards_) {
        for (std::uint64_t w : shard.awake)
            n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
}

void
Engine::addSerialPhase(std::function<void(Cycle)> hook)
{
    serial_phases_.push_back(std::move(hook));
}

void
Engine::setThreads(int n)
{
    threads_ = n < 1 ? 1 : n;
    lanes_dirty_ = true;
    rebuildLanes();
}

std::size_t
Engine::laneCount() const
{
    if (pool_ == nullptr)
        return 1;
    return lanes_.size();
}

void
Engine::rebuildLanes()
{
    lanes_dirty_ = false;
    const std::size_t nshards = shards_.size();
    const std::size_t want =
        std::min<std::size_t>(static_cast<std::size_t>(threads_),
                              nshards == 0 ? 1 : nshards);
    if (want <= 1) {
        pool_.reset();
        lanes_.clear();
        return;
    }
    // Contiguous blocks keep the lane-order concatenation equal to the
    // shard registration order (the serial order), and keep each lane's
    // chips adjacent in memory.
    lanes_.clear();
    lanes_.reserve(want);
    for (std::size_t t = 0; t < want; ++t) {
        Lane lane;
        lane.begin = nshards * t / want;
        lane.end = nshards * (t + 1) / want;
        lanes_.push_back(lane);
    }
    if (pool_ == nullptr || pool_->lanes() != static_cast<int>(want))
        pool_ = std::make_unique<CycleWorkerPool>(static_cast<int>(want));
    if (profiler_ != nullptr)
        profiler_->configure(laneCount(), shards_.size());
}

void
Engine::setProfiler(EngineProfiler *p)
{
    profiler_ = p;
    if (profiler_ == nullptr)
        return;
    if (lanes_dirty_)
        rebuildLanes();
    profiler_->configure(laneCount(), shards_.size());
    class_runs_dirty_ = true;
}

void
Engine::rebuildClassRuns()
{
    class_runs_dirty_ = false;
    class_runs_.assign(shards_.size(), {});
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        auto &runs = class_runs_[s];
        for (std::size_t i = 0; i < shards_[s].entries.size(); ++i) {
            const HostCompClass cls = shards_[s].entries[i].cls;
            if (runs.empty() || runs.back().cls != cls)
                runs.push_back({ i + 1, cls });
            else
                runs.back().end = i + 1;
        }
    }
}

void
Engine::setWindow(Cycle w)
{
    window_ = w < 1 ? 1 : w;
}

void
Engine::addBarrierAlignment(Cycle period, Cycle phase)
{
    if (period < 1)
        period = 1;
    Alignment a;
    a.period = period;
    a.phase = phase % period;
    for (const Alignment &have : alignments_) {
        if (have.period == a.period && have.phase == a.phase)
            return; // idempotent (instrumentation attach is idempotent)
    }
    alignments_.push_back(a);
}

template <bool kCount>
void
Engine::tickShardRange(std::size_t begin, std::size_t end, Cycle start,
                       Cycle window)
{
    [[maybe_unused]] std::uint64_t ticks[kNumHostCompClasses] = {};
    for (std::size_t s = begin; s < end; ++s) {
        Shard &shard = shards_[s];
        // Only this shard's components can set its awake bits during
        // the window, so a shard asleep now sleeps through it.
        std::uint64_t any = 0;
        for (std::uint64_t w : shard.awake)
            any |= w;
        if (any == 0)
            continue;
        tls_shard = s;
        // Cycle-major within the shard: all of a shard's awake
        // components tick cycle c before any ticks c+1, exactly the
        // serial schedule, so intra-shard latency-1 wires behave as in
        // a window-1 run. A component woken during cycle c ticks from
        // c (if its word is read after the wake) or c+1; either way its
        // idle replay makes the two indistinguishable.
        for (Cycle j = 0; j < window; ++j) {
            const Cycle c = start + j;
            tls_cycle = c;
            for (std::size_t k = 0; k < shard.awake.size(); ++k) {
                for (std::uint64_t m = shard.awake[k]; m != 0; m &= m - 1) {
                    const Entry &e =
                        shard.entries[k * 64
                                      + static_cast<std::size_t>(
                                          std::countr_zero(m))];
                    if (e.c->act_.slept_at != kNoCycle) [[unlikely]]
                        e.c->resume(c);
                    e.fn(*e.c, c);
                    if constexpr (kCount)
                        ++ticks[static_cast<std::size_t>(e.cls)];
                }
            }
        }
    }
    tls_cycle = kNoCycle;
    tls_shard = kNoShard;
    if constexpr (kCount) {
        const int lane = par::currentLane();
        profiler_->laneClassTicks(lane >= 0 ? lane : 0, ticks);
    }
}

void
Engine::tickShardRangeProfiled(std::size_t begin, std::size_t end,
                               Cycle start, Cycle window)
{
    const int lane = par::currentLane() >= 0 ? par::currentLane() : 0;
    std::uint64_t ticks[kNumHostCompClasses] = {};
    for (std::size_t s = begin; s < end; ++s) {
        Shard &shard = shards_[s];
        std::uint64_t any = 0;
        for (std::uint64_t w : shard.awake)
            any |= w;
        if (any == 0)
            continue;
        tls_shard = s;
        const auto &runs = class_runs_[s];
        std::int64_t cls_ns[kNumHostCompClasses] = {};
        // Chained reads: each run's segment ends where the next begins,
        // so a shard costs (runs + 1) clock reads per cycle - amortized
        // further by only running on the profiler's sampled windows.
        std::int64_t t = prof_detail::nowNs();
        const std::int64_t t_shard = t;
        auto closeRun = [&](const ClassRun &run) {
            const std::int64_t t2 = prof_detail::nowNs();
            cls_ns[static_cast<std::size_t>(run.cls)] += t2 - t;
            t = t2;
        };
        for (Cycle j = 0; j < window; ++j) {
            const Cycle c = start + j;
            tls_cycle = c;
            std::size_t r = 0;
            for (std::size_t k = 0; k < shard.awake.size(); ++k) {
                for (std::uint64_t m = shard.awake[k]; m != 0; m &= m - 1) {
                    const std::size_t i =
                        k * 64
                        + static_cast<std::size_t>(std::countr_zero(m));
                    while (i >= runs[r].end)
                        closeRun(runs[r++]);
                    const Entry &e = shard.entries[i];
                    if (e.c->act_.slept_at != kNoCycle) [[unlikely]]
                        e.c->resume(c);
                    e.fn(*e.c, c);
                    ++ticks[static_cast<std::size_t>(e.cls)];
                }
            }
            for (; r < runs.size(); ++r)
                closeRun(runs[r]);
        }
        profiler_->shardSampleNs(s, t - t_shard);
        for (std::size_t c = 0; c < kNumHostCompClasses; ++c) {
            if (cls_ns[c] != 0)
                profiler_->classSampleNs(
                    lane, static_cast<HostCompClass>(c), cls_ns[c]);
        }
    }
    tls_cycle = kNoCycle;
    tls_shard = kNoShard;
    profiler_->laneClassTicks(lane, ticks);
}

void
Engine::tickLane(std::size_t begin, std::size_t end, Cycle start,
                 Cycle window, bool sampled, bool cycle_major)
{
    // Cycle-major: the window as `window` one-cycle passes over every
    // shard of the lane; shard-major: one pass, each shard ticking the
    // whole window.
    const Cycle passes = cycle_major ? window : 1;
    const Cycle len = cycle_major ? 1 : window;
    if (profiler_ == nullptr) {
        for (Cycle p = 0; p < passes; ++p)
            tickShardRange<false>(begin, end, start + p, len);
        return;
    }
    const int lane = par::currentLane() >= 0 ? par::currentLane() : 0;
    profiler_->laneBegin(lane);
    for (Cycle p = 0; p < passes; ++p) {
        if (sampled)
            tickShardRangeProfiled(begin, end, start + p, len);
        else
            tickShardRange<true>(begin, end, start + p, len);
    }
    profiler_->laneEnd(lane);
}

void
Engine::holdCycleOrder(bool hold)
{
    if (hold)
        ++cycle_order_holds_;
    else if (cycle_order_holds_ > 0)
        --cycle_order_holds_;
}

Cycle
Engine::alignedWindow(Cycle w) const
{
    for (const Alignment &a : alignments_) {
        // Distance from now_ to the next observation cycle; the window
        // containing it must end exactly there.
        const Cycle r = now_ % a.period;
        const Cycle dist = a.phase >= r ? a.phase - r
                                        : a.period - r + a.phase;
        if (dist + 1 < w)
            w = dist + 1;
    }
    return w;
}

Cycle
Engine::advance(Cycle budget)
{
    if (budget < 1)
        return 0;
    if (lanes_dirty_) [[unlikely]]
        rebuildLanes();
    if (activity_dirty_) [[unlikely]]
        bindActivity();
    Cycle w = window_ < budget ? window_ : budget;
    if (!alignments_.empty())
        w = alignedWindow(w);
    const Cycle now = now_;

    const bool prof = profiler_ != nullptr;
    bool sampled = false;
    if (prof) [[unlikely]] {
        if (class_runs_dirty_)
            rebuildClassRuns();
        sampled = profiler_->windowBegin(now, w);
    }

    // A cycle-order hold runs the window on the calling thread even
    // when lanes exist: code inside ticks that shares host state across
    // shards then runs in one thread, in window-1 order.
    const bool held = cycle_order_holds_ > 0;
    if (pool_ != nullptr && !held) {
        pool_->run([this, now, w, sampled](int lane) {
            const Lane &l = lanes_[static_cast<std::size_t>(lane)];
            tickLane(l.begin, l.end, now, w, sampled, false);
        });
    } else if (w > 1) {
        // A serial windowed phase runs "as lane 0" so shared sinks stage
        // per (lane, cycle) exactly as a threaded run would; the serial
        // replay below then restores canonical per-cycle order either
        // way. (At w == 1 the direct path is already canonical.)
        par::LaneScope lane0(0);
        tickLane(0, shards_.size(), now, w, sampled, held);
    } else {
        tickLane(0, shards_.size(), now, w, sampled, false);
    }
    if (prof) [[unlikely]]
        profiler_->barrierDone();
    foldInbox();

    // Serial replay: for each cycle of the window, in order, the phase
    // hooks (staged-trace merge, deferred-delivery flush) then the
    // serial-tail components - the same per-cycle schedule a window-1
    // run interleaves with the parallel phase.
    for (Cycle j = 0; j < w; ++j) {
        const Cycle c = now + j;
        for (const auto &hook : serial_phases_)
            hook(c);
        for (auto *comp : components_)
            comp->tick(c);
    }
    if (prof) [[unlikely]]
        profiler_->windowEnd();
    now_ = now + w;
    return w;
}

void
Engine::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    while (now_ < end)
        advance(end - now_);
}

bool
Engine::busy() const
{
    for (const Shard &shard : shards_) {
        if (activity_dirty_) {
            // Registered since the last advance: all awake.
            for (const Entry &e : shard.entries) {
                if (e.c->busy())
                    return true;
            }
            continue;
        }
        for (std::size_t k = 0; k < shard.awake.size(); ++k) {
            for (std::uint64_t m = shard.awake[k]; m != 0; m &= m - 1) {
                const std::size_t i =
                    k * 64 + static_cast<std::size_t>(std::countr_zero(m));
                if (shard.entries[i].c->busy())
                    return true;
            }
        }
    }
    for (const auto *c : components_) {
        if (c->busy())
            return true;
    }
    return false;
}

std::size_t
Engine::componentCount() const
{
    std::size_t n = components_.size();
    for (const Shard &shard : shards_)
        n += shard.entries.size();
    return n;
}

} // namespace anton2
