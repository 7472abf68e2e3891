/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256++).
 *
 * The simulator must be bit-reproducible given a seed, so every stochastic
 * decision (randomized dimension orders, slice selection, traffic
 * destinations, error injection) draws from an explicitly threaded Rng
 * instance rather than any global generator.
 */
#pragma once

#include <array>
#include <cstdint>

namespace anton2 {

/**
 * xoshiro256++ generator (Blackman & Vigna). Small, fast, and of more than
 * sufficient quality for driving synthetic network traffic.
 */
class Rng
{
  public:
    /** Seed via splitmix64 so that nearby seeds produce unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /**
     * Stream @p index of @p seed: an independent generator per (seed,
     * index) pair, e.g. one per chip. The pair is mixed through
     * splitmix64 before seeding, so the streams of one seed, and the
     * same stream of nearby seeds, are unrelated.
     */
    static Rng
    stream(std::uint64_t seed, std::uint64_t index)
    {
        return Rng(mix(mix(seed) + index));
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's multiply-shift reduction. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Bound of 0 would be a caller bug; treat it as [0, 1) for safety.
        if (bound <= 1)
            return 0;
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in the inclusive range [lo, hi]. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Single uniformly random bit. */
    bool
    bit()
    {
        return (next() >> 63) != 0;
    }

    /** Raw generator state, for checkpointing. */
    std::array<std::uint64_t, 4>
    state() const
    {
        return { state_[0], state_[1], state_[2], state_[3] };
    }

    /** Reinstate generator state saved by state(). */
    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        for (std::size_t i = 0; i < 4; ++i)
            state_[i] = s[i];
    }

  private:
    /** One splitmix64 finalization of @p x + the golden gamma. */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace anton2
