#pragma once
// Fixed-memory log-linear histogram for latency percentiles.
//
// Values are bucketed HDR-style: below 2^kSubBits they are counted
// exactly (integer resolution); above, every power-of-two range
// [2^e, 2^(e+1)) is cut into 2^kSubBits equal sub-buckets.  A percentile
// reports the midpoint of the sub-bucket holding the requested rank, so
// its relative error is at most half a sub-bucket over the range's lower
// edge, kRelativeError (plus the < 1 unit integer truncation), whatever
// the number of samples.  Memory is a fixed array of counters: a
// long-running server records every completed request without growing.

#include <array>
#include <cstdint>

namespace gpusel::stats {

class LatencyHistogram {
public:
    /// log2 of the linear sub-buckets per power of two.
    static constexpr int kSubBits = 5;
    /// Bound on |percentile - exact| / exact for values >= 2^kSubBits.
    static constexpr double kRelativeError = 1.0 / (2 << kSubBits);

    /// Records one value (negative values count as 0).
    void add(double value) noexcept;
    [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
    /// Percentile in [0, 100] with the nearest-lower-rank rule of an exact
    /// sort (rank floor(pct / 100 * (count - 1))); 0 when empty.  The
    /// first and last ranks report the recorded min and max exactly.
    [[nodiscard]] double percentile(double pct) const noexcept;

private:
    static constexpr int kSub = 1 << kSubBits;
    static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t n_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace gpusel::stats
