#include "core/filter_kernel.hpp"

#include <bit>
#include <stdexcept>

#include "simt/simd.hpp"
#include "simt/timing.hpp"

namespace gpusel::core {

namespace {

/// Shared implementation: predicate = (oracle == bucket) extraction into
/// `out`; when `upper` is non-empty, (oracle > bucket) elements go to
/// `upper` through the global cursor counters[1] (top-k fusion).
template <typename T>
void run_filter(simt::Device& dev, std::span<const T> data, std::span<const std::uint8_t> oracles,
                std::int32_t bucket, std::span<T> out, std::span<T> upper,
                std::span<const std::int32_t> block_offsets, int num_buckets,
                std::span<std::int32_t> counters, const SampleSelectConfig& cfg,
                simt::LaunchOrigin origin, int grid_dim, int stream, const char* name) {
    const std::size_t n = data.size();
    if (oracles.size() != n) throw std::invalid_argument("oracle buffer size mismatch");
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    const bool fused = !upper.empty() || counters.size() > 1;
    if (shared_mode && block_offsets.size() <
                           static_cast<std::size_t>(grid_dim) * static_cast<std::size_t>(num_buckets)) {
        throw std::invalid_argument("block_offsets too small");
    }
    if (!shared_mode && counters.empty()) {
        throw std::invalid_argument("global mode needs a cursor counter");
    }

    dev.launch(
        name,
        {.grid_dim = grid_dim, .block_dim = cfg.block_dim, .origin = origin,
         .unroll = cfg.unroll, .stream = stream < 0 ? cfg.stream : stream},
        [&, n, bucket, num_buckets, shared_mode, fused](simt::BlockCtx& blk) {
            // Target-bucket cursor: shared counter seeded with the block's
            // base offset (merged hierarchy step 3), or the global cursor.
            std::int32_t sh_cursor = 0;
            std::span<std::int32_t> target_ctr;
            simt::AtomicSpace target_space;
            if (shared_mode) {
                const auto idx = static_cast<std::size_t>(blk.block_idx()) *
                                     static_cast<std::size_t>(num_buckets) +
                                 static_cast<std::size_t>(bucket);
                sh_cursor = blk.ld(block_offsets, idx);
                blk.charge_global_read(sizeof(std::int32_t));
                blk.charge_shared(sizeof(std::int32_t));
                target_ctr = std::span<std::int32_t>(&sh_cursor, 1);
                target_space = simt::AtomicSpace::shared;
            } else {
                target_ctr = counters.subspan(0, 1);
                target_space = simt::AtomicSpace::global;
            }

            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                std::uint8_t orc[simt::kWarpSize];
                w.load(oracles, base, orc);
                // Predicate masks come straight from the oracle bytes the
                // count pass cached -- one byte-compare tile op, no
                // per-element bucket recomputation.  The instr charge
                // models the per-lane compare as before.
                const auto b8 = static_cast<std::uint8_t>(bucket);
                const std::uint32_t mask = simt::simd::byte_eq_mask(orc, b8, w.lanes());
                bool pred[simt::kWarpSize];
                simt::simd::mask_to_pred(mask, w.lanes(), pred);
                const std::int32_t zeros[simt::kWarpSize] = {};
                w.add_instr(static_cast<std::uint64_t>(w.lanes()));

                std::int32_t off[simt::kWarpSize];
                // Stream-compaction offsets always use the ballot+popcount
                // aggregation of Bakunas-Milanowski et al. (one atomic per
                // warp); cfg.warp_aggregation only governs the count
                // kernel's histogram (Fig. 6).  All matched lanes share one
                // cursor, so the aggregated fetch_add hands them
                // lane-ordered consecutive offsets: the scatter is a
                // contiguous run starting at the first matched lane's slot
                // and compiles to one masked compress-store tile.
                w.fetch_add(target_space, target_ctr, zeros, off, /*aggregated=*/true,
                            /*index_bits=*/1, pred);
                if (mask != 0) {
                    const int lead = std::countr_zero(mask);
                    w.compress_gather_store(out, static_cast<std::size_t>(off[lead]), data, base,
                                            mask);
                }

                if (fused) {
                    const std::uint32_t umask = simt::simd::byte_gt_mask(orc, b8, w.lanes());
                    bool pred_upper[simt::kWarpSize];
                    simt::simd::mask_to_pred(umask, w.lanes(), pred_upper);
                    std::int32_t uoff[simt::kWarpSize];
                    w.fetch_add(simt::AtomicSpace::global, counters.subspan(1, 1), zeros, uoff,
                                /*aggregated=*/true, /*index_bits=*/1, pred_upper);
                    if (umask != 0) {
                        const int ulead = std::countr_zero(umask);
                        w.compress_gather_store(upper, static_cast<std::size_t>(uoff[ulead]),
                                                data, base, umask);
                    }
                }
            });
        });
}

}  // namespace

template <typename T>
void filter_kernel(simt::Device& dev, std::span<const T> data,
                   std::span<const std::uint8_t> oracles, std::int32_t bucket, std::span<T> out,
                   std::span<const std::int32_t> block_offsets, int num_buckets,
                   std::span<std::int32_t> global_counter, const SampleSelectConfig& cfg,
                   simt::LaunchOrigin origin, int grid_dim, int stream) {
    run_filter<T>(dev, data, oracles, bucket, out, {}, block_offsets, num_buckets, global_counter,
                  cfg, origin, grid_dim, stream, "filter");
}

template <typename T>
void filter_fused_topk_kernel(simt::Device& dev, std::span<const T> data,
                              std::span<const std::uint8_t> oracles, std::int32_t bucket,
                              std::span<T> out, std::span<T> upper,
                              std::span<const std::int32_t> block_offsets, int num_buckets,
                              std::span<std::int32_t> counters, const SampleSelectConfig& cfg,
                              simt::LaunchOrigin origin, int grid_dim, int stream) {
    if (counters.size() < 2) throw std::invalid_argument("fused filter needs two cursors");
    run_filter<T>(dev, data, oracles, bucket, out, upper, block_offsets, num_buckets, counters,
                  cfg, origin, grid_dim, stream, "filter_topk");
}

template <typename T>
void scatter_kernel(simt::Device& dev, std::span<const T> data,
                    std::span<const std::uint8_t> oracles,
                    std::span<const std::int32_t> seg_base, std::span<T> out,
                    std::span<const std::int32_t> block_offsets,
                    std::span<std::int32_t> cursors, const SampleSelectConfig& cfg,
                    simt::LaunchOrigin origin, int grid_dim, int stream) {
    const std::size_t n = data.size();
    const std::size_t b = seg_base.size();
    if (oracles.size() != n) throw std::invalid_argument("oracle buffer size mismatch");
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    if (shared_mode && block_offsets.size() < static_cast<std::size_t>(grid_dim) * b) {
        throw std::invalid_argument("block_offsets too small");
    }
    if (!shared_mode && cursors.size() < b) {
        throw std::invalid_argument("global mode needs one cursor per bucket");
    }
    // Global cursors are always warp-aggregated (one atomic per bucket group
    // per warp); shared cursors follow cfg.warp_aggregation (Fig. 6).
    // Either way same-bucket lanes get lane-ordered consecutive slots.
    const bool aggregated = cfg.warp_aggregation || !shared_mode;
    const int index_bits = std::bit_width(b - 1);
    const std::size_t words = (b + 31) / 32;

    dev.launch(
        "scatter",
        {.grid_dim = grid_dim, .block_dim = cfg.block_dim, .origin = origin,
         .unroll = cfg.unroll, .stream = stream < 0 ? cfg.stream : stream},
        [&, n, b, words, shared_mode, aggregated, index_bits](simt::BlockCtx& blk) {
            // Prologue: the segment table becomes a read-only membership
            // bitmask and, in shared mode, the block's cursors (segment base
            // + the block's offset within the bucket).
            auto member = blk.shared_array<std::uint32_t>(words);
            std::span<std::int32_t> sh_cursors;
            if (shared_mode) sh_cursors = blk.shared_array<std::int32_t>(b);
            const auto row = static_cast<std::size_t>(blk.block_idx()) * b;
            std::uint32_t word = 0;
            for (std::size_t i = 0; i < b; ++i) {
                const std::int32_t base = blk.ld(seg_base, i);
                if (base >= 0) word |= std::uint32_t{1} << (i % 32);
                if (i % 32 == 31 || i + 1 == b) {
                    blk.shared_st(member, i / 32, word);
                    word = 0;
                }
                if (shared_mode) {
                    blk.shared_st(sh_cursors, i, base + blk.ld(block_offsets, row + i));
                }
            }
            blk.charge_global_read((shared_mode ? 2 : 1) * b * sizeof(std::int32_t));
            blk.charge_shared(((shared_mode ? b : 0) + words) * sizeof(std::int32_t));
            blk.sync();

            const std::span<std::int32_t> ctr = shared_mode ? sh_cursors : cursors;
            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                std::uint8_t orc[simt::kWarpSize];
                T elems[simt::kWarpSize];
                std::int32_t which[simt::kWarpSize];
                std::int32_t off[simt::kWarpSize] = {};
                bool keep[simt::kWarpSize];
                std::size_t idx[simt::kWarpSize];
                w.load(oracles, base, orc);
                w.load(data, base, elems);
                for (int l = 0; l < w.lanes(); ++l) {
                    which[l] = orc[l];
                    keep[l] = ((blk.shared_ld(member, orc[l] / 32u) >> (orc[l] % 32u)) & 1u) != 0;
                }
                // The membership test: one shared-word read and compare per
                // lane.
                w.touch_shared(static_cast<std::uint64_t>(w.lanes()) * sizeof(std::uint32_t));
                w.add_instr(static_cast<std::uint64_t>(w.lanes()));
                w.fetch_add(cfg.atomic_space, ctr, which, off, aggregated, index_bits, keep);
                for (int l = 0; l < w.lanes(); ++l) idx[l] = static_cast<std::size_t>(off[l]);
                w.scatter(out, idx, elems, keep);
            });
        });
}

template void filter_kernel<float>(simt::Device&, std::span<const float>,
                                   std::span<const std::uint8_t>, std::int32_t, std::span<float>,
                                   std::span<const std::int32_t>, int, std::span<std::int32_t>,
                                   const SampleSelectConfig&, simt::LaunchOrigin, int, int);
template void filter_kernel<double>(simt::Device&, std::span<const double>,
                                    std::span<const std::uint8_t>, std::int32_t, std::span<double>,
                                    std::span<const std::int32_t>, int, std::span<std::int32_t>,
                                    const SampleSelectConfig&, simt::LaunchOrigin, int, int);
template void filter_fused_topk_kernel<float>(simt::Device&, std::span<const float>,
                                              std::span<const std::uint8_t>, std::int32_t,
                                              std::span<float>, std::span<float>,
                                              std::span<const std::int32_t>, int,
                                              std::span<std::int32_t>, const SampleSelectConfig&,
                                              simt::LaunchOrigin, int, int);
template void filter_fused_topk_kernel<double>(simt::Device&, std::span<const double>,
                                               std::span<const std::uint8_t>, std::int32_t,
                                               std::span<double>, std::span<double>,
                                               std::span<const std::int32_t>, int,
                                               std::span<std::int32_t>, const SampleSelectConfig&,
                                               simt::LaunchOrigin, int, int);
template void scatter_kernel<float>(simt::Device&, std::span<const float>,
                                    std::span<const std::uint8_t>, std::span<const std::int32_t>,
                                    std::span<float>, std::span<const std::int32_t>,
                                    std::span<std::int32_t>, const SampleSelectConfig&,
                                    simt::LaunchOrigin, int, int);
template void scatter_kernel<double>(simt::Device&, std::span<const double>,
                                     std::span<const std::uint8_t>, std::span<const std::int32_t>,
                                     std::span<double>, std::span<const std::int32_t>,
                                     std::span<std::int32_t>, const SampleSelectConfig&,
                                     simt::LaunchOrigin, int, int);
template void filter_kernel<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                     std::span<const std::uint8_t>, std::int32_t,
                                     std::span<ArgPair>, std::span<const std::int32_t>, int,
                                     std::span<std::int32_t>, const SampleSelectConfig&,
                                     simt::LaunchOrigin, int, int);
template void filter_fused_topk_kernel<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                                std::span<const std::uint8_t>, std::int32_t,
                                                std::span<ArgPair>, std::span<ArgPair>,
                                                std::span<const std::int32_t>, int,
                                                std::span<std::int32_t>, const SampleSelectConfig&,
                                                simt::LaunchOrigin, int, int);

}  // namespace gpusel::core
