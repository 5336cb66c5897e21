#pragma once
// Input dataset generators (Sec. V-A of the paper, plus adversarial
// distributions for the robustness claims of Sec. V-D).
//
// The paper's primary inputs are "uniform distributions across a
// pre-defined set of distinct values": n elements drawn uniformly from d
// distinct values, with d in {1, 16, 128, 1024, n}.  Since SampleSelect is
// comparison-based it is sensitive only to the *rank* distribution, but the
// value-range-splitting baselines (BucketSelect/RadixSelect) are not -- the
// adversarial generators exploit exactly that.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gpusel::data {

enum class Distribution {
    /// n elements uniform over `distinct_values` distinct reals (the
    /// paper's main workload; distinct_values == n gives all-distinct).
    uniform_distinct,
    /// i.i.d. uniform reals on [0, 1).
    uniform_real,
    /// i.i.d. standard normal.
    normal,
    /// i.i.d. exponential(1).
    exponential,
    /// 0, 1, 2, ... (already sorted).
    sorted_ascending,
    /// n-1, ..., 1, 0.
    sorted_descending,
    /// organ pipe: 0, 1, ..., n/2, ..., 1, 0.
    organ_pipe,
    /// Adversarial for value-range bucketing: 99% of the elements fall in a
    /// cluster of width 1e-9 while outliers stretch the value range to
    /// ~1e9; uniform value splitting puts almost everything in one bucket.
    adversarial_cluster,
    /// Adversarial for value-range bucketing: exponentially spaced values
    /// x_i ~ 2^-i; every uniform value split isolates only the largest few.
    adversarial_geometric,
    /// Zipf-like (alpha = 1.1) ranks over 64k distinct values: heavy
    /// duplication of the most popular values, a realistic "top-k over
    /// term frequencies" workload.
    zipf,
    /// log-normal (mu = 0, sigma = 2): smooth but strongly skewed; a
    /// latency-like distribution.
    lognormal,
};

[[nodiscard]] std::string to_string(Distribution d);
/// All distributions, for parameterized test sweeps.
[[nodiscard]] const std::vector<Distribution>& all_distributions();

struct DatasetSpec {
    std::size_t n = 0;
    Distribution dist = Distribution::uniform_distinct;
    /// Number of distinct values for uniform_distinct (0 means n).
    std::size_t distinct_values = 0;
    std::uint64_t seed = 42;
};

/// Generates a dataset according to spec.  T is float or double.
template <typename T>
[[nodiscard]] std::vector<T> generate(const DatasetSpec& spec);

/// Duplicate-heavy keys with a distinct tail: half the elements share one
/// value, 30 % share six more (5 % each) and 20 % are distinct reals, all
/// in [0, 1).  Most ranks end in an equality bucket; the planner's cost
/// model must still route the selection to the sampler.
[[nodiscard]] std::vector<float> generate_duplicate_mix(std::size_t n, std::uint64_t seed);

/// Draws a target rank uniformly from [0, n) (Sec. V-A: "we also chose a
/// random rank uniformly at random to simulate a variety of workloads").
[[nodiscard]] std::size_t random_rank(std::size_t n, std::uint64_t seed);

extern template std::vector<float> generate<float>(const DatasetSpec&);
extern template std::vector<double> generate<double>(const DatasetSpec&);

}  // namespace gpusel::data
