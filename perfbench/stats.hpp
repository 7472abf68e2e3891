/**
 * @file
 * Timing-sample summary: the median and the 99th percentile, reported
 * with the sample count. Callers size their sample sets to at least 1000
 * so the 99th percentile has ten samples beyond it.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

struct Summary
{
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t samples = 0;
};

/** Nearest-rank percentiles of @p v (empty input gives zeros). */
inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.samples = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    auto rank = [&](double q) {
        const auto i =
            static_cast<std::size_t>(q * static_cast<double>(v.size()));
        return v[std::min(i, v.size() - 1)];
    };
    s.p50 = rank(0.50);
    s.p99 = rank(0.99);
    return s;
}

} // namespace perfbench
