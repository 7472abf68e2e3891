/**
 * @file
 * A persistent worker pool specialized for barrier-per-cycle simulation.
 *
 * The engine's parallel phase is the same tiny job every cycle: "tick
 * lane L's components at time `now`". A general task queue would pay
 * queue locking and wakeup latency on every one of millions of cycles,
 * so this pool keeps its threads alive across the whole run and releases
 * them once per cycle through a generation counter (C++20 atomic
 * wait/notify, futex-backed where available). One run() call is one
 * barrier: the calling thread executes lane 0 itself, the workers
 * execute lanes 1..N-1, and run() returns only after every lane has
 * finished - which is exactly the cross-thread happens-before edge the
 * wire invariant needs between cycles.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace anton2 {

namespace par {

/**
 * Lane index of the calling thread while it is inside a parallel phase,
 * or -1 on the serial path (any thread outside CycleWorkerPool::run).
 * The observer bus, shared across lanes, keys its per-lane staging
 * buffers off this.
 */
int currentLane();

/**
 * RAII marker turning the calling thread into lane @p lane for its
 * lifetime. The engine uses it to run a serial (pool-less) lookahead
 * window "as lane 0", so observer staging takes the same per-cycle
 * bucketing path serially and threaded - that shared path is what keeps
 * a windowed serial run byte-identical to a windowed threaded one.
 */
class LaneScope
{
  public:
    explicit LaneScope(int lane);
    ~LaneScope();

    LaneScope(const LaneScope &) = delete;
    LaneScope &operator=(const LaneScope &) = delete;

  private:
    int prev_;
};

} // namespace par

/**
 * Persistent pool executing one fixed-shape parallel region per call.
 * Constructing a pool with @p lanes spawns `lanes - 1` worker threads;
 * they idle on an atomic generation counter between cycles and exit when
 * the pool is destroyed.
 */
class CycleWorkerPool
{
  public:
    using LaneFn = std::function<void(int lane)>;

    explicit CycleWorkerPool(int lanes);
    ~CycleWorkerPool();

    CycleWorkerPool(const CycleWorkerPool &) = delete;
    CycleWorkerPool &operator=(const CycleWorkerPool &) = delete;

    int lanes() const { return lanes_; }

    /**
     * Execute @p fn once per lane (0..lanes-1) concurrently; the calling
     * thread runs lane 0. Returns after every lane has completed, with
     * all lane writes visible to the caller (acquire/release on the
     * completion counter).
     */
    void run(const LaneFn &fn);

  private:
    void workerLoop(int lane);

    int lanes_;
    std::vector<std::thread> workers_;
    const LaneFn *job_ = nullptr; ///< valid while a generation is open
    std::atomic<std::uint64_t> generation_{ 0 };
    std::atomic<int> outstanding_{ 0 };
    std::atomic<bool> stop_{ false };
};

} // namespace anton2
