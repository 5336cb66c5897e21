#pragma once
// The `filter` kernel (Sec. IV-B c): scans the oracles and extracts the
// elements of one bucket into contiguous storage.  Write positions come
// from a shared-memory counter whose block base was produced by the reduce
// step (this is the merged step 3 of the Sec. IV-G hierarchy), or from a
// single global atomic counter in global-atomic mode.  Follows the
// predicated-copy approach of Bakunas-Milanowski et al., but reads bucket
// indexes from the oracles instead of predicate bits.
//
// The same file holds the multi-bucket `scatter` (one pass writing many
// buckets, each into its own segment), shared by sample sort and
// multi-select's leaf gather.

#include <cstdint>
#include <span>

#include "core/config.hpp"
#include "core/key_payload.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// Extracts all elements whose oracle equals `bucket` into `out` (which
/// must have the bucket's exact size).
///
/// * Shared mode: `block_offsets` is the reduce_offsets output (row-major
///   grid_dim x num_buckets exclusive prefix sums) and `grid_dim` must
///   equal the count kernel's grid.  `global_counter` is unused.
/// * Global mode: `global_counter` is a zeroed 1-element array used as the
///   shared "next free slot" cursor; `block_offsets` is unused.
template <typename T>
void filter_kernel(simt::Device& dev, std::span<const T> data,
                   std::span<const std::uint8_t> oracles, std::int32_t bucket, std::span<T> out,
                   std::span<const std::int32_t> block_offsets, int num_buckets,
                   std::span<std::int32_t> global_counter, const SampleSelectConfig& cfg,
                   simt::LaunchOrigin origin, int grid_dim, int stream = -1);

/// Fused top-k variant (Sec. IV-I): extracts the target bucket into `out`
/// *and* every element of a larger bucket (oracle > bucket) into `upper`,
/// whose cursor starts at upper_counter/upper_offsets analogously.  Used by
/// the top-k driver, where elements above the target bucket are already
/// guaranteed to belong to the top-k set.
template <typename T>
void filter_fused_topk_kernel(simt::Device& dev, std::span<const T> data,
                              std::span<const std::uint8_t> oracles, std::int32_t bucket,
                              std::span<T> out, std::span<T> upper,
                              std::span<const std::int32_t> block_offsets, int num_buckets,
                              std::span<std::int32_t> counters, const SampleSelectConfig& cfg,
                              simt::LaunchOrigin origin, int grid_dim, int stream = -1);

/// Multi-bucket scatter (the sample-sort distribution pass, Leischner et
/// al.): every element whose bucket has a segment goes to
/// out[seg_base[bucket] + its slot within the bucket]; elements of buckets
/// with seg_base[bucket] < 0 are skipped.  seg_base has one entry per
/// bucket: sample sort passes the level's prefix (every bucket gathered),
/// multi-select only its small target buckets.
///
/// * Shared mode: per-block shared cursors seeded with seg_base[b] +
///   block_offsets[block * num_buckets + b] (the reduce_offsets output);
///   `cursors` is unused.
/// * Global mode: `cursors` (one per bucket) are the warp-aggregated global
///   cursors and must hold seg_base on entry; `block_offsets` is unused.
template <typename T>
void scatter_kernel(simt::Device& dev, std::span<const T> data,
                    std::span<const std::uint8_t> oracles,
                    std::span<const std::int32_t> seg_base, std::span<T> out,
                    std::span<const std::int32_t> block_offsets,
                    std::span<std::int32_t> cursors, const SampleSelectConfig& cfg,
                    simt::LaunchOrigin origin, int grid_dim, int stream = -1);

extern template void filter_kernel<float>(simt::Device&, std::span<const float>,
                                          std::span<const std::uint8_t>, std::int32_t,
                                          std::span<float>, std::span<const std::int32_t>, int,
                                          std::span<std::int32_t>, const SampleSelectConfig&,
                                          simt::LaunchOrigin, int, int);
extern template void filter_kernel<double>(simt::Device&, std::span<const double>,
                                           std::span<const std::uint8_t>, std::int32_t,
                                           std::span<double>, std::span<const std::int32_t>, int,
                                           std::span<std::int32_t>, const SampleSelectConfig&,
                                           simt::LaunchOrigin, int, int);
extern template void filter_fused_topk_kernel<float>(simt::Device&, std::span<const float>,
                                                     std::span<const std::uint8_t>, std::int32_t,
                                                     std::span<float>, std::span<float>,
                                                     std::span<const std::int32_t>, int,
                                                     std::span<std::int32_t>,
                                                     const SampleSelectConfig&,
                                                     simt::LaunchOrigin, int, int);
extern template void filter_fused_topk_kernel<double>(simt::Device&, std::span<const double>,
                                                      std::span<const std::uint8_t>, std::int32_t,
                                                      std::span<double>, std::span<double>,
                                                      std::span<const std::int32_t>, int,
                                                      std::span<std::int32_t>,
                                                      const SampleSelectConfig&,
                                                      simt::LaunchOrigin, int, int);
extern template void scatter_kernel<float>(simt::Device&, std::span<const float>,
                                           std::span<const std::uint8_t>,
                                           std::span<const std::int32_t>, std::span<float>,
                                           std::span<const std::int32_t>,
                                           std::span<std::int32_t>, const SampleSelectConfig&,
                                           simt::LaunchOrigin, int, int);
extern template void scatter_kernel<double>(simt::Device&, std::span<const double>,
                                            std::span<const std::uint8_t>,
                                            std::span<const std::int32_t>, std::span<double>,
                                            std::span<const std::int32_t>,
                                            std::span<std::int32_t>, const SampleSelectConfig&,
                                            simt::LaunchOrigin, int, int);
extern template void filter_kernel<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                            std::span<const std::uint8_t>, std::int32_t,
                                            std::span<ArgPair>, std::span<const std::int32_t>,
                                            int, std::span<std::int32_t>,
                                            const SampleSelectConfig&, simt::LaunchOrigin, int,
                                            int);
extern template void filter_fused_topk_kernel<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                                       std::span<const std::uint8_t>,
                                                       std::int32_t, std::span<ArgPair>,
                                                       std::span<ArgPair>,
                                                       std::span<const std::int32_t>, int,
                                                       std::span<std::int32_t>,
                                                       const SampleSelectConfig&,
                                                       simt::LaunchOrigin, int, int);

}  // namespace gpusel::core
