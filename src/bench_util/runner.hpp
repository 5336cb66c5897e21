#pragma once
// Experiment runner helpers shared by all bench binaries: repetition with
// mean/stddev aggregation (the paper runs every experiment on 10 distinct
// datasets and reports average plus variation, Sec. V-A/B), environment-
// variable scaling of problem sizes, and throughput conversion.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "stats/summary.hpp"

namespace gpusel::bench {

/// Reads a size_t environment variable with a default.
[[nodiscard]] std::size_t env_size(const char* name, std::size_t fallback);

/// Benchmark scale knobs, all overridable from the environment:
///   GPUSEL_BENCH_MAX_LOG_N  largest log2(n) in sweeps   (default 22)
///   GPUSEL_BENCH_MIN_LOG_N  smallest log2(n) in sweeps  (default 16)
///   GPUSEL_BENCH_REPS       repetitions per data point  (default 3;
///                           the paper uses 10)
struct Scale {
    std::size_t min_log_n = 16;
    std::size_t max_log_n = 22;
    std::size_t reps = 3;

    [[nodiscard]] static Scale from_env();
    [[nodiscard]] std::vector<std::size_t> sizes(std::size_t step = 2) const;
};

/// Runs `fn(rep)` `reps` times; each call returns a simulated duration in
/// ns, aggregated into a Summary.
[[nodiscard]] stats::Summary repeat_ns(std::size_t reps,
                                       const std::function<double(std::size_t)>& fn);

/// elements-per-second throughput from a duration summary.
[[nodiscard]] double throughput(std::size_t n, double ns);

/// The value of a core front-end call; on failure prints the Status and
/// exits non-zero (a table row computed from a failed call would be wrong).
template <typename T>
[[nodiscard]] T value_or_exit(core::Result<T> r) {
    if (!r.ok()) {
        std::fprintf(stderr, "bench: %s\n", r.status().to_message().c_str());
        std::exit(1);
    }
    return r.take();
}

}  // namespace gpusel::bench
