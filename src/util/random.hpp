/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All synthetic graphs and feature matrices are generated from explicit
 * seeds so that every experiment in the paper-reproduction harness is
 * bit-reproducible across runs and machines. The generator is
 * xoshiro256** (Blackman & Vigna), which is fast, has a 256-bit state and
 * passes BigCrush; we do not use std::mt19937 because its stream is not
 * guaranteed identical across standard-library implementations for all
 * the distribution adaptors we need.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hpp"

namespace grow {

/**
 * xoshiro256** PRNG with SplitMix64 seeding.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1): the top 53 bits of next(), times 2^-53. */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n) using Lemire's bounded method. */
    uint64_t
    bounded(uint64_t n)
    {
        GROW_ASSERT(n > 0, "bounded(0) is undefined");
        // Lemire's nearly-divisionless bounded sampling.
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        uint64_t l = static_cast<uint64_t>(m);
        if (l < n) {
            uint64_t t = -n % n;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * n;
                l = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Pareto-distributed sample with shape @p alpha and minimum @p xm.
     * Used for power-law degree weights: P(X > x) = (xm/x)^alpha.
     */
    double pareto(double alpha, double xm = 1.0);

    /** Standard exponential sample with rate @p lambda. */
    double exponential(double lambda = 1.0);

    /** Normal sample via Box-Muller (no state cached). */
    double normal(double mean = 0.0, double stddev = 1.0);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = bounded(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    uint64_t s_[4];
};

/**
 * Alias-method sampler for drawing indices from a fixed discrete
 * distribution in O(1) per sample. Used by the graph generators to pick
 * edge endpoints proportionally to power-law degree weights.
 */
class AliasTable
{
  public:
    AliasTable() = default;

    /** Build from (unnormalised) non-negative weights. */
    explicit AliasTable(const std::vector<double> &weights);

    /** Number of categories. */
    size_t size() const { return prob_.size(); }

    /** Whether the table has been initialised with >=1 category. */
    bool empty() const { return prob_.empty(); }

    /** Draw one index. */
    uint32_t
    sample(Rng &rng) const
    {
        GROW_ASSERT(!prob_.empty(), "sampling from empty alias table");
        uint32_t i = static_cast<uint32_t>(rng.bounded(prob_.size()));
        return rng.uniform() < prob_[i] ? i : alias_[i];
    }

  private:
    std::vector<double> prob_;
    std::vector<uint32_t> alias_;
};

} // namespace grow
