#include "core/multiselect.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "bitonic/bitonic.hpp"
#include "core/batch_executor.hpp"
#include "core/filter_kernel.hpp"
#include "core/float_order.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"

namespace gpusel::core {

namespace {

/// One pending (rank within the current buffer, output slot) pair.
struct Target {
    std::size_t rank;
    std::size_t out_slot;
};

/// Sorts every small target bucket of level `lv` at once (the distribution
/// pass + batched small-bucket sort of GPU Sample Sort): ONE scatter
/// gathers the buckets with seg_base[b] >= 0 into `gather`, one segment
/// per bucket, and ONE batched bitonic launch sorts all the segments.
template <typename T>
void sort_leaf_buckets(const PipelineContext& ctx, std::span<const T> data,
                       const LevelOutcome<T>& lv, const std::vector<std::int32_t>& seg_base,
                       const std::vector<bitonic::Segment>& segments, std::span<T> gather,
                       simt::LaunchOrigin origin) {
    // The segment table travels with the launch arguments (an uncharged
    // host write, like filter_topk's cursor seeds); in global mode a second
    // copy seeds the per-bucket cursors, so no memset launch is needed.
    auto table = ctx.scratch<std::int32_t>(seg_base.size());
    std::copy(seg_base.begin(), seg_base.end(), table.span().begin());
    simt::PooledBuffer<std::int32_t> cursors;
    if (!ctx.shared_mode()) {
        cursors = ctx.scratch<std::int32_t>(seg_base.size());
        std::copy(seg_base.begin(), seg_base.end(), cursors.span().begin());
    }
    scatter_kernel<T>(ctx.dev(), data, lv.oracles.span(), table.span(), gather,
                      lv.block_counts.span(), cursors.span(), ctx.cfg(), origin, lv.grid,
                      ctx.stream());
    bitonic::batched_sort_on_device<T>(ctx.dev(), gather, segments, origin, ctx.cfg().block_dim,
                                       ctx.stream());
}

/// Tree descent: one bucketing level shared by all targets in `buf`, then
/// every small target bucket (<= min(base_case_size, bitonic capacity)) is
/// answered by one scatter + one batched sort, and only the larger buckets
/// recurse.  Unlike the linear sample_select descent, children branch, so
/// each recursing child gets its own pooled holder (released back to the
/// pool when its subtree is done) instead of the two-buffer ping-pong.
///
/// The host groups the targets from the level's totals, so the level skips
/// the select_bucket locate launch.
///
/// `stalls` counts consecutive no-progress levels on this path; past
/// cfg.max_stalled_levels the node runs the deterministic tripartition
/// level instead of sampling (guaranteed progress, docs/robustness.md).
///
/// `fan` (may be null) is the stream fan for the first level with more
/// than one recursing bucket: each such subtree then runs on its own lane
/// (children wait on the level's event, the base stream joins them at the
/// end) and deeper recursions stay on their lane's stream.  The leaf batch
/// stays on the level's stream.  Levels that do not fork pass the fan down
/// unused.
template <typename T>
Status solve(const PipelineContext& ctx, DataHolder<T> buf, std::vector<Target> targets,
             std::size_t depth, std::size_t stalls, MultiSelectResult<T>& res, StreamFan* fan) {
    const SampleSelectConfig& cfg = ctx.cfg();
    const std::size_t n = buf.size();
    res.max_depth = std::max(res.max_depth, depth);
    const auto origin = depth == 0 ? simt::LaunchOrigin::host : simt::LaunchOrigin::device;

    if (n <= cfg.base_case_size) {
        Status s = with_fault_retry(ctx, [&] { sort_base_case<T>(ctx, buf.span(), origin); });
        if (!s.ok()) return s;
        for (const Target& t : targets) res.values[t.out_slot] = buf.span()[t.rank];
        return Status::success();
    }
    if (depth >= static_cast<std::size_t>(cfg.max_levels)) {
        return Status::failure(SelectError::depth_exceeded,
                               "multi_select: max_levels recursion depth exceeded");
    }

    const bool use_fallback =
        cfg.force_fallback || stalls > static_cast<std::size_t>(cfg.max_stalled_levels);
    const LevelOptions opt{.locate = false};
    auto lvres = use_fallback
                     ? try_run_pivot_level<T>(ctx, buf.span(), /*rank=*/0, origin, opt)
                     : try_run_bucket_level<T>(ctx, buf.span(), /*rank=*/0, origin,
                                               depth * 977, opt);
    if (!lvres.ok()) return lvres.status();
    const LevelOutcome<T> lv = lvres.take();
    if (use_fallback) {
        ++res.fallback_levels;
        ++ctx.dev().robustness().fallback_levels;
    }

    const auto b = static_cast<std::size_t>(lv.tree.num_buckets);
    const auto totals = lv.totals_span();
    std::vector<std::size_t> prefix(b + 1, 0);
    for (std::size_t i = 0; i < b; ++i) {
        prefix[i + 1] = prefix[i] + static_cast<std::size_t>(totals[i]);
    }

    // Group target ranks by bucket (the one whose prefix range holds them).
    std::map<std::size_t, std::vector<Target>> by_bucket;
    for (const Target& t : targets) {
        const auto ub = static_cast<std::size_t>(
            std::upper_bound(prefix.begin() + 1, prefix.end(), t.rank) - (prefix.begin() + 1));
        by_bucket[ub].push_back({t.rank - prefix[ub], t.out_slot});
    }

    // Equality buckets answer at once; small buckets become segments of the
    // leaf gather (their targets re-ranked into it); the rest recurse.
    const std::size_t leaf_cap = std::min(cfg.base_case_size, bitonic::kMaxSortSize);
    std::vector<std::int32_t> seg_base(b, -1);
    std::vector<bitonic::Segment> segments;
    std::vector<Target> leaf_targets;
    std::vector<std::pair<std::size_t, std::vector<Target>>> deep;
    std::size_t gathered = 0;
    for (auto& [ub, sub] : by_bucket) {
        if (lv.tree.equality[ub]) {
            const T v = lv.equality_value(static_cast<std::int32_t>(ub));
            for (const Target& t : sub) res.values[t.out_slot] = v;
            continue;
        }
        const auto bucket_size = static_cast<std::size_t>(totals[ub]);
        if (bucket_size > leaf_cap) {
            deep.emplace_back(ub, std::move(sub));
            continue;
        }
        seg_base[ub] = static_cast<std::int32_t>(gathered);
        segments.push_back({gathered, bucket_size});
        for (const Target& t : sub) leaf_targets.push_back({gathered + t.rank, t.out_slot});
        gathered += bucket_size;
    }

    // Fan the recursing subtrees over the stream lanes once the level really
    // split them; the host still descends depth-first, so the launch order
    // is unchanged -- only the stream tags differ.
    const bool fanning = fan != nullptr && fan->count() > 1 && deep.size() > 1;
    if (fanning) (void)fan->fork();

    if (!segments.empty()) {
        res.max_depth = std::max(res.max_depth, depth + 1);
        DataHolder<T> gather;
        Status s = with_fault_retry(ctx, [&] {
            gather = DataHolder<T>::acquire(ctx, gathered);
            sort_leaf_buckets<T>(ctx, buf.span(), lv, seg_base, segments, gather.span(), origin);
        });
        if (!s.ok()) return s;
        for (const Target& t : leaf_targets) res.values[t.out_slot] = gather.span()[t.rank];
    }

    std::size_t lane_idx = 0;
    for (auto& [ub, sub] : deep) {
        const auto bucket_size = static_cast<std::size_t>(totals[ub]);
        std::size_t child_stalls = 0;
        if (bucket_size == n) {
            // Stalled level (pathological sample; all targets fell into one
            // full-size bucket).  Recursing re-samples with a depth-based
            // salt; past the budget the child switches to the fallback.
            if (use_fallback) {
                // The tripartition tree's equality bucket is non-empty by
                // construction, so this means broken invariants.
                return Status::failure(
                    SelectError::no_progress,
                    "multi_select: deterministic fallback level failed to shrink the bucket");
            }
            ++res.resamples;
            ++ctx.dev().robustness().resamples;
            child_stalls = stalls + 1;
            if (child_stalls == static_cast<std::size_t>(cfg.max_stalled_levels) + 1) {
                ++ctx.dev().robustness().fallbacks;
            }
        }
        const PipelineContext child_ctx =
            fanning ? PipelineContext(ctx.dev(), cfg,
                                      fan->stream(fan->lane_of(lane_idx++)))
                    : ctx;
        DataHolder<T> child;
        Status s = with_fault_retry(child_ctx, [&] {
            child = DataHolder<T>::acquire(child_ctx, bucket_size);
            filter_bucket<T>(child_ctx, buf.span(), lv, static_cast<std::int32_t>(ub),
                             child.span(), origin);
        });
        if (!s.ok()) return s;
        s = solve(child_ctx, std::move(child), std::move(sub), depth + 1, child_stalls, res,
                  fanning ? nullptr : fan);
        if (!s.ok()) return s;
    }
    if (fanning) fan->join();
    return Status::success();
}

}  // namespace

template <typename T>
Result<MultiSelectResult<T>> try_multi_select(simt::Device& dev, std::span<const T> input,
                                              std::span<const std::size_t> ranks,
                                              const SampleSelectConfig& cfg) {
    if (Status v = cfg.validate(/*exact=*/true); !v.ok()) return v;
    const std::size_t n = input.size();
    if (ranks.empty()) return MultiSelectResult<T>{};
    for (std::size_t r : ranks) {
        if (r >= n) {
            return Status::failure(SelectError::rank_out_of_range, "rank out of range");
        }
    }

    PipelineContext ctx(dev, cfg);
    DataHolder<T> buf;
    Status s = with_fault_retry(ctx, [&] { buf = DataHolder<T>::stage(ctx, input); });
    if (!s.ok()) return s;

    MultiSelectResult<T> res;
    res.values.resize(ranks.size());

    // NaN staging pre-pass: ranks inside the NaN tail of the total order
    // answer quiet NaN; the rest descend over the non-NaN prefix.
    const std::size_t nan_count = partition_nans_to_back(buf.span());
    if (nan_count > 0 && cfg.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "multi_select: input contains NaN keys");
    }
    const std::size_t n_num = n - nan_count;
    std::vector<Target> targets;
    targets.reserve(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        if (ranks[i] >= n_num) {
            res.values[i] = quiet_nan<T>();
        } else {
            targets.push_back({ranks[i], i});
        }
    }
    res.nan_count = nan_count;
    buf.view(n_num);

    if (!targets.empty()) {
        // Multi-rank descent is planned structurally: the bucket tree is
        // the only backend sharing one partition level across all targets,
        // so the decision is recorded (planner log + backend tallies)
        // rather than probed per rank.  An env-forced radix/bitonic
        // override is infeasible here and falls through to sample.
        PlanQuery q;
        q.n = buf.size();
        q.k = targets.size();
        q.multi = true;
        q.elem_size = sizeof(T);
        q.base_case_size = cfg.base_case_size;
        record_planned_decision(dev,
                                plan(q, DistributionHints{}, dev.arch(), backend_env_override()),
                                q.n, q.k, ctx.stream());
    }

    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();
    if (!targets.empty()) {
        // Independent ranks are independent sub-problems after the first
        // partition level: fan their bucket subtrees over leased streams.
        Result<int> fan_width = try_resolve_stream_count(targets.size());
        if (!fan_width.ok()) return fan_width.status();
        StreamFan fan(dev, fan_width.value(), ctx.stream());
        res.streams_used = fan.count();
        s = solve(ctx, std::move(buf), std::move(targets), 0, 0, res,
                  fan.count() > 1 ? &fan : nullptr);
        if (!s.ok()) return s;
    }
    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    return res;
}

template Result<MultiSelectResult<float>> try_multi_select<float>(simt::Device&,
                                                                  std::span<const float>,
                                                                  std::span<const std::size_t>,
                                                                  const SampleSelectConfig&);
template Result<MultiSelectResult<double>> try_multi_select<double>(simt::Device&,
                                                                    std::span<const double>,
                                                                    std::span<const std::size_t>,
                                                                    const SampleSelectConfig&);

}  // namespace gpusel::core
