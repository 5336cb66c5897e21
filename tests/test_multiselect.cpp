// Tests for multi-rank selection (future-work extension, Sec. VI).

#include "core/multiselect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "baselines/cpu_reference.hpp"
#include "core/float_order.hpp"
#include "data/distributions.hpp"
#include "data/rng.hpp"
#include "result_util.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

TEST(MultiSelect, EmptyRanksGiveEmptyResult) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    const auto res = must(core::try_multi_select<float>(dev, data, {}, {}));
    EXPECT_TRUE(res.values.empty());
}

TEST(MultiSelect, SingleRankMatchesReference) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    const std::vector<std::size_t> ranks{n / 2};
    const auto res = must(core::try_multi_select<float>(dev, data, ranks, {}));
    ASSERT_EQ(res.values.size(), 1u);
    EXPECT_EQ(stats::rank_error<float>(data, res.values[0], n / 2), 0u);
}

TEST(MultiSelect, QuartilesOfUniformData) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 15;
    const auto data = data::generate<double>(
        {.n = n, .dist = data::Distribution::normal, .seed = 5});
    const std::vector<std::size_t> ranks{n / 4, n / 2, 3 * n / 4};
    const auto res = must(core::try_multi_select<double>(dev, data, ranks, {}));
    ASSERT_EQ(res.values.size(), 3u);
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(stats::rank_error<double>(data, res.values[i], ranks[i]), 0u);
    }
    EXPECT_LE(res.values[0], res.values[1]);
    EXPECT_LE(res.values[1], res.values[2]);
}

TEST(MultiSelect, UnsortedRanksPreserveOutputOrder) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 13;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::exponential, .seed = 7});
    const std::vector<std::size_t> ranks{n - 1, 0, n / 2};
    const auto res = must(core::try_multi_select<float>(dev, data, ranks, {}));
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(stats::rank_error<float>(data, res.values[i], ranks[i]), 0u);
    }
    EXPECT_GE(res.values[0], res.values[2]);  // max >= median
    EXPECT_LE(res.values[1], res.values[2]);  // min <= median
}

TEST(MultiSelect, ManyRanksAcrossDuplicates) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>({.n = n,
                                             .dist = data::Distribution::uniform_distinct,
                                             .distinct_values = 128,
                                             .seed = 9});
    std::vector<std::size_t> ranks;
    for (std::size_t i = 0; i < 16; ++i) ranks.push_back(i * n / 16);
    const auto res = must(core::try_multi_select<float>(dev, data, ranks, {}));
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(stats::rank_error<float>(data, res.values[i], ranks[i]), 0u) << i;
    }
}

TEST(MultiSelect, SharedWorkCheaperThanRepeatedSelect) {
    // Selecting 9 deciles in one tree must cost less simulated time than 9
    // independent full selections.
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 11});
    std::vector<std::size_t> ranks;
    for (std::size_t i = 1; i <= 9; ++i) ranks.push_back(i * n / 10);

    simt::Device multi_dev(simt::arch_v100());
    const auto multi = must(core::try_multi_select<float>(multi_dev, data, ranks, {}));

    simt::Device single_dev(simt::arch_v100());
    double single_total = 0;
    for (std::size_t r : ranks) {
        const std::vector<std::size_t> one{r};
        single_total += must(core::try_multi_select<float>(single_dev, data, one, {})).sim_ns;
    }
    EXPECT_LT(multi.sim_ns, single_total * 0.5);
}

TEST(MultiSelect, OutOfRangeRankFails) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    const std::vector<std::size_t> ranks{3};
    EXPECT_EQ(core::try_multi_select<float>(dev, data, ranks, {}).error(),
              core::SelectError::rank_out_of_range);
}

// ---- leaf batching: one scatter + one batched sort per level ----------------

/// The candidate step of a sharded select: 128 regular ranks over a
/// 16,384-element shard (stride ceil(n / 129), as phase A computes it).
constexpr std::size_t kShardElems = 16384;

std::vector<std::size_t> shard_ranks(std::size_t n) {
    const std::size_t s = 128;
    const std::size_t w = (n + s) / (s + 1);
    std::vector<std::size_t> ranks;
    for (std::size_t i = 0; i < s; ++i) ranks.push_back(std::min(n - 1, (i + 1) * w - 1));
    return ranks;
}

/// Each rank's element under the library's total order (NaNs on top);
/// NaN-free inputs are cross-checked against std::nth_element.
template <typename T>
std::vector<T> reference_values(const std::vector<T>& data,
                                const std::vector<std::size_t>& ranks) {
    std::vector<T> sorted = data;
    std::sort(sorted.begin(), sorted.end(), [](T a, T b) { return core::total_less(a, b); });
    const bool has_nan = std::any_of(data.begin(), data.end(), [](T x) { return std::isnan(x); });
    std::vector<T> want;
    for (const std::size_t r : ranks) {
        want.push_back(sorted[r]);
        if (!has_nan) {
            EXPECT_EQ(baselines::cpu_nth_element<T>(data, r).value, sorted[r]) << "rank " << r;
        }
    }
    return want;
}

template <typename T>
std::vector<T> shard_input(const std::string& kind) {
    if (kind == "all_equal") return std::vector<T>(kShardElems, T(3.25));
    if (kind == "duplicates") {
        return data::generate<T>({.n = kShardElems,
                                  .dist = data::Distribution::uniform_distinct,
                                  .distinct_values = 100,
                                  .seed = 21});
    }
    if (kind == "sorted") {
        return data::generate<T>(
            {.n = kShardElems, .dist = data::Distribution::sorted_ascending, .seed = 22});
    }
    auto v = data::generate<T>(
        {.n = kShardElems, .dist = data::Distribution::uniform_real, .seed = 23});
    if (kind == "nan") {
        // Every 19th key is NaN: ranks past the numeric prefix answer NaN.
        for (std::size_t i = 0; i < v.size(); i += 19) v[i] = std::numeric_limits<T>::quiet_NaN();
    }
    return v;
}

template <typename T>
class MultiSelectShardShape : public ::testing::Test {};
using KeyTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(MultiSelectShardShape, KeyTypes);

TYPED_TEST(MultiSelectShardShape, AnswersInFewLaunchesAndMatchesReference) {
    using T = TypeParam;
    const auto ranks = shard_ranks(kShardElems);
    for (const auto space : {simt::AtomicSpace::shared, simt::AtomicSpace::global}) {
        for (const std::string kind : {"uniform", "duplicates", "all_equal", "sorted", "nan"}) {
            SCOPED_TRACE(kind + (space == simt::AtomicSpace::shared ? " shared" : " global"));
            const auto data = shard_input<T>(kind);
            core::SampleSelectConfig cfg;
            cfg.atomic_space = space;
            simt::Device dev(simt::arch_v100());
            const auto res = must(core::try_multi_select<T>(dev, data, ranks, cfg));
            // One level (sample, count, reduce or memset), one scatter and
            // one batched sort -- not a filter and a sort per bucket.
            EXPECT_LE(res.launches, 10u);
            ASSERT_EQ(res.values.size(), ranks.size());
            const auto want = reference_values(data, ranks);
            for (std::size_t i = 0; i < ranks.size(); ++i) {
                if (std::isnan(want[i])) {
                    EXPECT_TRUE(std::isnan(res.values[i])) << "rank " << ranks[i];
                } else {
                    EXPECT_EQ(res.values[i], want[i]) << "rank " << ranks[i];
                }
            }
        }
    }
}

TEST(MultiSelect, TargetsMixLeafAndRecursingBuckets) {
    // 2^16 uniform keys over 256 buckets average 256 per bucket, so with a
    // 256-element leaf cap some target buckets are gathered and sorted in
    // the leaf batch while the others recurse through a filter.
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 31});
    std::vector<std::size_t> ranks;
    for (std::size_t i = 0; i < 64; ++i) ranks.push_back(i * n / 64 + 17);
    for (const auto space : {simt::AtomicSpace::shared, simt::AtomicSpace::global}) {
        core::SampleSelectConfig cfg;
        cfg.atomic_space = space;
        cfg.base_case_size = 256;
        simt::Device dev(simt::arch_v100());
        const auto res = must(core::try_multi_select<float>(dev, data, ranks, cfg));
        EXPECT_EQ(res.values, reference_values(data, ranks));
        std::size_t scatters_root = 0;
        std::size_t filters = 0;
        for (const auto& p : dev.profiles()) {
            if (p.name == "scatter" && p.origin == simt::LaunchOrigin::host) ++scatters_root;
            if (p.name == "filter") ++filters;
        }
        EXPECT_EQ(scatters_root, 1u) << "the root level gathers its small buckets once";
        EXPECT_GT(filters, 0u) << "some target buckets exceed the leaf cap and recurse";
        EXPECT_EQ(res.max_depth, 2u);
    }
}

TEST(MultiSelect, ShardShapePeakAuxWithinParentCeiling) {
    // Global atomics, as the sharded candidate step runs them.  Ceiling:
    // the peak of the per-bucket filter descent this step used before, in
    // the shared-atomic mode it ran then (about 150 KB on this shape).  The
    // gather buffer costs more than that descent did in global mode
    // (85,020 B on this input), but dropping the grid x buckets offset
    // matrix more than pays for it.
    const auto data = data::generate<float>(
        {.n = kShardElems, .dist = data::Distribution::uniform_real, .seed = 41});
    core::SampleSelectConfig cfg;
    cfg.atomic_space = simt::AtomicSpace::global;
    simt::Device dev(simt::arch_v100());
    dev.tracker().set_baseline();
    const std::size_t before = dev.tracker().current();
    const auto res = must(core::try_multi_select<float>(dev, data, shard_ranks(kShardElems), cfg));
    EXPECT_EQ(res.values.size(), 128u);
    EXPECT_LE(dev.tracker().peak() - before, 150232u);
}

}  // namespace
