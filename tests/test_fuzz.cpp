// Randomized cross-validation ("fuzz") tests: random datasets, random
// configurations, random ranks -- every algorithm must agree with
// std::nth_element.  These catch interaction bugs the directed tests miss
// (odd sizes, extreme duplicates, tiny/huge buckets, unusual block sizes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "baselines/bucketselect.hpp"
#include "baselines/quickselect.hpp"
#include "baselines/radixselect.hpp"
#include "core/float_order.hpp"
#include "core/multiselect.hpp"
#include "core/sample_select.hpp"
#include "core/shard_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "data/rng.hpp"
#include "result_util.hpp"
#include "simt/topology.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

struct FuzzCase {
    std::vector<float> data;
    std::size_t rank;
    core::SampleSelectConfig cfg;
    std::string description;
};

FuzzCase make_case(std::uint64_t seed) {
    data::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    FuzzCase c;
    // odd sizes on purpose (not powers of two)
    const std::size_t n = 2 + rng.bounded(40000);
    const auto& dists = data::all_distributions();
    const auto dist = dists[rng.bounded(dists.size())];
    const std::size_t distinct =
        rng.bounded(4) == 0 ? 1 + rng.bounded(64) : 0;  // sometimes few distinct
    c.data = data::generate<float>(
        {.n = n, .dist = dist, .distinct_values = distinct, .seed = seed});
    c.rank = rng.bounded(n);

    const int bucket_choices[] = {4, 16, 64, 256};
    c.cfg.num_buckets = bucket_choices[rng.bounded(4)];
    c.cfg.sample_size = static_cast<int>(
        std::max<std::uint64_t>(static_cast<std::uint64_t>(c.cfg.num_buckets),
                                64 + rng.bounded(2048)));
    c.cfg.block_dim = static_cast<int>(32 * (1 + rng.bounded(8)));
    c.cfg.unroll = static_cast<int>(1 + rng.bounded(8));
    c.cfg.atomic_space =
        rng.bounded(2) == 0 ? simt::AtomicSpace::shared : simt::AtomicSpace::global;
    c.cfg.warp_aggregation = rng.bounded(2) == 0;
    c.cfg.base_case_size = 64 + rng.bounded(1024);
    c.cfg.seed = seed;
    c.description = "seed=" + std::to_string(seed) + " n=" + std::to_string(n) + " dist=" +
                    to_string(dist) + " b=" + std::to_string(c.cfg.num_buckets);
    return c;
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, SampleSelectAgreesWithReference) {
    const auto c = make_case(GetParam());
    simt::Device dev(simt::arch_v100());
    const auto r = must(core::try_sample_select<float>(dev, c.data, c.rank, c.cfg));
    EXPECT_EQ(stats::rank_error<float>(c.data, r.value, c.rank), 0u) << c.description;
}

TEST_P(Fuzz, QuickSelectAgreesWithReference) {
    const auto c = make_case(GetParam() + 1000);
    core::QuickSelectConfig qcfg;
    qcfg.atomic_space = c.cfg.atomic_space;
    qcfg.warp_aggregation = c.cfg.warp_aggregation;
    qcfg.block_dim = c.cfg.block_dim;
    qcfg.base_case_size = c.cfg.base_case_size;
    qcfg.seed = c.cfg.seed;
    simt::Device dev(simt::arch_v100());
    const auto r = baselines::quick_select<float>(dev, c.data, c.rank, qcfg);
    EXPECT_EQ(stats::rank_error<float>(c.data, r.value, c.rank), 0u) << c.description;
}

TEST_P(Fuzz, BucketAndRadixAgreeWithReference) {
    const auto c = make_case(GetParam() + 2000);
    simt::Device d1(simt::arch_v100());
    const auto rb = baselines::bucket_select<float>(d1, c.data, c.rank, {});
    EXPECT_EQ(stats::rank_error<float>(c.data, rb.value, c.rank), 0u) << c.description;
    simt::Device d2(simt::arch_v100());
    const auto rr = baselines::radix_select<float>(d2, c.data, c.rank, {});
    EXPECT_EQ(stats::rank_error<float>(c.data, rr.value, c.rank), 0u) << c.description;
}

TEST_P(Fuzz, TopKContainsExactlyTheLargest) {
    const auto c = make_case(GetParam() + 3000);
    const std::size_t k = 1 + c.rank % std::min<std::size_t>(c.data.size(), 500);
    simt::Device dev(simt::arch_v100());
    const auto r = must(core::try_topk_largest<float>(dev, c.data, k, c.cfg));
    ASSERT_EQ(r.elements.size(), k) << c.description;
    std::vector<float> expect(c.data);
    std::sort(expect.begin(), expect.end(), std::greater<>());
    expect.resize(k);
    auto got = r.elements;
    std::sort(got.begin(), got.end(), std::greater<>());
    EXPECT_EQ(got, expect) << c.description;
}

TEST_P(Fuzz, K20PresetAgreesToo) {
    const auto c = make_case(GetParam() + 4000);
    simt::Device dev(simt::preset("K20Xm"));
    const auto r = must(core::try_sample_select<float>(dev, c.data, c.rank, c.cfg));
    EXPECT_EQ(stats::rank_error<float>(c.data, r.value, c.rank), 0u) << c.description;
}

/// Sprinkles NaN keys into about half of the cases and picks a NaN policy;
/// returns true when the case holds NaNs.
bool add_nans(FuzzCase& c, data::Xoshiro256& rng) {
    c.cfg.nan_policy = rng.bounded(2) == 0 ? core::NanPolicy::reject
                                           : core::NanPolicy::propagate_largest;
    if (rng.bounded(2) != 0) return false;
    for (std::size_t i = rng.bounded(7); i < c.data.size(); i += 1 + rng.bounded(64)) {
        c.data[i] = std::numeric_limits<float>::quiet_NaN();
    }
    return true;
}

/// The library's total order (NaNs above +inf), fully sorted.
std::vector<float> total_order(std::vector<float> v) {
    std::sort(v.begin(), v.end(), [](float a, float b) { return core::total_less(a, b); });
    return v;
}

void expect_same_key(float got, float want, const std::string& what) {
    if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << what;
    } else {
        EXPECT_EQ(got, want) << what;
    }
}

TEST_P(Fuzz, MultiSelectAgreesWithReference) {
    auto c = make_case(GetParam() + 5000);
    data::Xoshiro256 rng(GetParam() * 0x2545f4914f6cdd1dULL + 5);
    const bool nans = add_nans(c, rng);
    // Random rank sets, unsorted and with repeated ranks.
    std::vector<std::size_t> ranks;
    const std::size_t m = 1 + rng.bounded(48);
    for (std::size_t i = 0; i < m; ++i) {
        ranks.push_back(i > 0 && rng.bounded(4) == 0 ? ranks[rng.bounded(i)]
                                                     : rng.bounded(c.data.size()));
    }
    simt::Device dev(simt::arch_v100());
    const auto r = core::try_multi_select<float>(dev, c.data, ranks, c.cfg);
    if (nans && c.cfg.nan_policy == core::NanPolicy::reject) {
        EXPECT_EQ(r.error(), core::SelectError::nan_keys_rejected) << c.description;
        return;
    }
    const auto res = must(r);
    const auto sorted = total_order(c.data);
    ASSERT_EQ(res.values.size(), ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        expect_same_key(res.values[i], sorted[ranks[i]],
                        c.description + " rank=" + std::to_string(ranks[i]));
    }
}

TEST_P(Fuzz, ShardedSelectAgreesWithReference) {
    auto c = make_case(GetParam() + 6000);
    data::Xoshiro256 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 11);
    const bool nans = add_nans(c, rng);
    // 16 KiB modeled capacity -> 1024 floats per shard: most cases shard.
    simt::TopologySpec spec;
    spec.num_devices = 1 + static_cast<int>(rng.bounded(3));
    spec.arch = simt::arch_v100();
    spec.mem_capacity_bytes = 16 * 1024;
    simt::DeviceGroup group(spec);
    core::ShardSelectConfig scfg;
    scfg.select = c.cfg;
    const auto r = core::try_sharded_select<float>(group, c.data, c.rank, scfg);
    if (nans && c.cfg.nan_policy == core::NanPolicy::reject) {
        EXPECT_EQ(r.error(), core::SelectError::nan_keys_rejected) << c.description;
        return;
    }
    const auto res = must(r);
    expect_same_key(res.value, total_order(c.data)[c.rank],
                    c.description + " rank=" + std::to_string(c.rank));
}

TEST_P(Fuzz, ShardedTopKAgreesWithReference) {
    auto c = make_case(GetParam() + 7000);
    data::Xoshiro256 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 13);
    const bool nans = add_nans(c, rng);
    simt::TopologySpec spec;
    spec.num_devices = 1 + static_cast<int>(rng.bounded(3));
    spec.arch = simt::arch_v100();
    spec.mem_capacity_bytes = 16 * 1024;
    simt::DeviceGroup group(spec);
    core::ShardSelectConfig scfg;
    scfg.select = c.cfg;
    // k stays below one shard's 1024-float staging budget, so every case
    // gathers on the root.
    const std::size_t k = 1 + c.rank % std::min<std::size_t>(c.data.size(), 500);
    const std::string what = c.description + " k=" + std::to_string(k);
    const auto r = core::try_sharded_topk<float>(group, c.data, k, scfg);
    if (nans && c.cfg.nan_policy == core::NanPolicy::reject) {
        EXPECT_EQ(r.error(), core::SelectError::nan_keys_rejected) << what;
        return;
    }
    const auto res = must(r);
    const auto sorted = total_order(c.data);
    const std::vector<float> want(sorted.end() - static_cast<std::ptrdiff_t>(k), sorted.end());
    ASSERT_EQ(res.elements.size(), k) << what;
    const auto got = total_order(res.elements);
    for (std::size_t i = 0; i < k; ++i) expect_same_key(got[i], want[i], what);
    expect_same_key(res.threshold, want.front(), what + " threshold");
}

/// Duplicate-heavy and low-distinct keys of `n` elements, the inputs where
/// the planner's backends differ most: zipf, 2..4096 uniformly drawn
/// values, or the select benchmark's mix (half the keys one value, 30 %
/// six more, 20 % distinct).
std::vector<float> duplicate_heavy(std::size_t n, std::uint64_t seed, data::Xoshiro256& rng,
                                   std::string& what) {
    switch (rng.bounded(3)) {
        case 0:
            what = "zipf";
            return data::generate<float>({.n = n, .dist = data::Distribution::zipf, .seed = seed});
        case 1: {
            const std::size_t d = std::size_t{2} << rng.bounded(12);  // 2 .. 4096
            what = std::to_string(d) + " distinct";
            return data::generate<float>({.n = n,
                                          .dist = data::Distribution::uniform_distinct,
                                          .distinct_values = d,
                                          .seed = seed});
        }
        default:
            what = "dups mix";
            return data::generate_duplicate_mix(n, seed);
    }
}

/// Runs the planned select and every backend forced through GPUSEL_BACKEND
/// on `keys` (converted to T; ArgPair payloads are the indices) and checks
/// each answer against the total-order reference.
template <typename T>
void expect_backends_agree(const std::vector<float>& keys, std::size_t rank,
                           const core::SampleSelectConfig& cfg, bool nans,
                           const std::string& what) {
    std::vector<T> data(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if constexpr (std::is_same_v<T, core::ArgPair>) {
            data[i] = {keys[i], static_cast<std::uint32_t>(i)};
        } else {
            data[i] = static_cast<T>(keys[i]);
        }
    }
    std::vector<T> sorted = data;
    std::sort(sorted.begin(), sorted.end(), [](T a, T b) { return core::total_less(a, b); });
    const T want = sorted[rank];
    for (const char* backend : {"auto", "sample", "radix", "bitonic"}) {
        const std::string where = what + " backend=" + backend;
        ::setenv("GPUSEL_BACKEND", backend, 1);
        simt::Device dev(simt::arch_v100());
        const auto r = core::try_sample_select<T>(dev, data, rank, cfg);
        ::unsetenv("GPUSEL_BACKEND");
        if (nans && cfg.nan_policy == core::NanPolicy::reject) {
            EXPECT_EQ(r.error(), core::SelectError::nan_keys_rejected) << where;
            continue;
        }
        ASSERT_TRUE(r.ok()) << where << ": " << r.status().to_message();
        const T got = r.value().value;
        if (core::is_nan_key(want)) {
            EXPECT_TRUE(core::is_nan_key(got)) << where;
        } else {
            EXPECT_TRUE(core::total_equal(got, want)) << where;
        }
    }
}

// The planner's differential: on duplicate-heavy keys the planned select
// and each forced backend (an infeasible force falls through to the
// planner) return the reference answer, for every key type and NaN policy.
TEST_P(Fuzz, PlannedAndForcedBackendsAgreeOnDuplicateHeavyKeys) {
    auto c = make_case(GetParam() + 8000);
    data::Xoshiro256 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 17);
    std::string dist;
    c.data = duplicate_heavy(c.data.size(), GetParam(), rng, dist);
    const bool nans = add_nans(c, rng);
    const std::string what = c.description + " keys=" + dist + " rank=" + std::to_string(c.rank);
    expect_backends_agree<float>(c.data, c.rank, c.cfg, nans, what + " float");
    expect_backends_agree<double>(c.data, c.rank, c.cfg, nans, what + " double");
    expect_backends_agree<core::ArgPair>(c.data, c.rank, c.cfg, nans, what + " argpair");
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
