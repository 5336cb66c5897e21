#include "stats/latency_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace gpusel::stats {

namespace {

constexpr int kSubBits = LatencyHistogram::kSubBits;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

std::size_t bucket_of(std::uint64_t u) noexcept {
    if (u < kSub) return static_cast<std::size_t>(u);
    const int e = static_cast<int>(std::bit_width(u)) - 1;  // >= kSubBits
    const int shift = e - kSubBits;
    const std::uint64_t sub = (u >> shift) & (kSub - 1);
    return static_cast<std::size_t>((static_cast<std::uint64_t>(shift) + 1) * kSub + sub);
}

/// Midpoint of bucket `i`'s value range.
double midpoint_of(std::size_t i) noexcept {
    if (i < kSub) return static_cast<double>(i);
    const auto shift = static_cast<int>(i / kSub) - 1;
    const std::uint64_t sub = i % kSub;
    const double lower = std::ldexp(static_cast<double>(kSub + sub), shift);
    return lower + std::ldexp(0.5, shift);
}

}  // namespace

void LatencyHistogram::add(double value) noexcept {
    const double v = std::max(0.0, value);
    min_ = n_ == 0 ? v : std::min(min_, v);
    max_ = n_ == 0 ? v : std::max(max_, v);
    ++n_;
    const std::uint64_t u =
        v >= 0x1p64 ? ~std::uint64_t{0} : static_cast<std::uint64_t>(v);
    ++counts_[bucket_of(u)];
}

double LatencyHistogram::percentile(double pct) const noexcept {
    if (n_ == 0) return 0.0;
    const double pos = std::clamp(pct, 0.0, 100.0) / 100.0 * static_cast<double>(n_ - 1);
    const auto rank = static_cast<std::uint64_t>(pos);
    if (rank == 0) return min_;
    if (rank + 1 >= n_) return max_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen > rank) return std::clamp(midpoint_of(i), min_, max_);
    }
    return max_;
}

}  // namespace gpusel::stats
