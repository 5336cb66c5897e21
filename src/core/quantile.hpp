#pragma once
// Quantile convenience layer over exact SampleSelect: maps q in [0,1] to a
// 0-based rank with an explicit tie-breaking method.  Multi-quantile and
// approximate queries pass try_quantile_rank's ranks to try_multi_select
// or try_approx_select.  ("Quantile selection in order statistics" is the
// first application the paper's introduction lists.)

#include <cstddef>
#include <span>

#include "core/sample_select.hpp"

namespace gpusel::core {

/// How a non-integer quantile position maps to a rank.
enum class QuantileMethod {
    lower,    ///< floor((n-1) q)
    nearest,  ///< round((n-1) q)
    higher,   ///< ceil((n-1) q)
};

/// Rank of the q-quantile of an n-element dataset.  Empty datasets and
/// out-of-range (or NaN) quantile positions come back as a typed Status.
[[nodiscard]] Result<std::size_t> try_quantile_rank(
    std::size_t n, double q, QuantileMethod method = QuantileMethod::nearest);

/// Exact q-quantile via SampleSelect: bad quantile positions and every
/// selection failure mode surface as a typed Status.
template <typename T>
[[nodiscard]] Result<T> try_quantile(simt::Device& dev, std::span<const T> data, double q,
                                     const SampleSelectConfig& cfg = {},
                                     QuantileMethod method = QuantileMethod::nearest) {
    auto rank = try_quantile_rank(data.size(), q, method);
    if (!rank.ok()) return rank.status();
    auto sel = try_sample_select<T>(dev, data, rank.value(), cfg);
    if (!sel.ok()) return sel.status();
    return sel.value().value;
}

}  // namespace gpusel::core
