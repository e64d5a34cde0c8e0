#include "util/random.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace grow {

namespace {

/** SplitMix64 step, used only for seeding. */
uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &s : s_)
        s = splitMix64(x);
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    GROW_ASSERT(lo <= hi, "range with lo > hi");
    return lo + static_cast<int64_t>(bounded(static_cast<uint64_t>(hi - lo + 1)));
}

double
Rng::pareto(double alpha, double xm)
{
    GROW_ASSERT(alpha > 0 && xm > 0, "pareto requires positive parameters");
    double u = 1.0 - uniform(); // in (0, 1]
    return xm / std::pow(u, 1.0 / alpha);
}

double
Rng::exponential(double lambda)
{
    GROW_ASSERT(lambda > 0, "exponential requires positive rate");
    double u = 1.0 - uniform();
    return -std::log(u) / lambda;
}

double
Rng::normal(double mean, double stddev)
{
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return mean + stddev * z;
}

AliasTable::AliasTable(const std::vector<double> &weights)
{
    const size_t n = weights.size();
    GROW_ASSERT(n > 0, "alias table needs at least one weight");
    double total = 0.0;
    for (double w : weights) {
        GROW_ASSERT(w >= 0.0, "alias table weights must be non-negative");
        total += w;
    }
    GROW_ASSERT(total > 0.0, "alias table weights must not all be zero");

    prob_.assign(n, 0.0);
    alias_.assign(n, 0);

    // Vose's algorithm.
    std::vector<double> scaled(n);
    std::vector<uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        scaled[i] = weights[i] * n / total;
        if (scaled[i] < 1.0)
            small.push_back(static_cast<uint32_t>(i));
        else
            large.push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
        uint32_t s = small.back(); small.pop_back();
        uint32_t l = large.back(); large.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if (scaled[l] < 1.0)
            small.push_back(l);
        else
            large.push_back(l);
    }
    while (!large.empty()) {
        prob_[large.back()] = 1.0;
        large.pop_back();
    }
    while (!small.empty()) {
        prob_[small.back()] = 1.0;
        small.pop_back();
    }
}

} // namespace grow
