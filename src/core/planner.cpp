#include "core/planner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "bitonic/bitonic.hpp"
#include "core/radix_kernel.hpp"
#include "simt/timing.hpp"

namespace gpusel::core {

namespace {

/// Probe identity of one element: the radix key image, so -0.0 == +0.0
/// and duplicate *keys* count as duplicates even for key/payload pairs
/// (payloads are unique indices and would hide every duplicate).
std::uint64_t probe_key(float x) noexcept { return RadixTraits<float>::key(x); }
std::uint64_t probe_key(double x) noexcept { return RadixTraits<double>::key(x); }
std::uint64_t probe_key(ArgPair x) noexcept { return RadixTraits<float>::key(x.key); }

/// Can the backend run this problem at all?
bool feasible(BackendKind k, const PlanQuery& q) noexcept {
    switch (k) {
        case BackendKind::sample: return true;
        case BackendKind::radix: return !q.multi;
        case BackendKind::bitonic:
            return !q.multi && q.n <= static_cast<std::size_t>(bitonic::kMaxSortSize);
    }
    return false;
}

bool quarantined(BackendKind k, const PlanQuery& q) noexcept {
    return (q.quarantined & backend_bit(k)) != 0;
}

// ---- the cost model -------------------------------------------------------

/// The probe read as a key distribution: one repeated "top" key of share
/// `top` (0 when no probed key repeated) and `rest` equally likely keys
/// sharing the remainder (infinite when every other probed key was
/// unique, i.e. the probe saw no sign of a bounded key set).
struct KeyModel {
    double top = 0.0;
    double rest = std::numeric_limits<double>::infinity();

    [[nodiscard]] double keys() const noexcept { return (top > 0.0 ? 1.0 : 0.0) + rest; }
    /// Share of each of the `rest` keys (0 when there are none or unboundedly many).
    [[nodiscard]] double rest_share() const noexcept {
        return rest > 0.0 ? (1.0 - top) / rest : 0.0;
    }
    /// Expected distinct keys among `draws` elements (e.g. a warp's lanes).
    [[nodiscard]] double distinct_in(double draws) const noexcept {
        double d = top > 0.0 ? 1.0 - std::pow(1.0 - top, draws) : 0.0;
        if (std::isinf(rest)) {
            d += draws * (1.0 - top);
        } else {
            d += rest * (1.0 - std::pow(1.0 - rest_share(), draws));
        }
        return std::min(d, draws);
    }
};

/// Expected distinct values among `draws` uniform draws from `k` values.
double expected_distinct(double k, double draws) noexcept {
    return k * (1.0 - std::pow(1.0 - 1.0 / k, draws));
}

KeyModel key_model(const DistributionHints& h) {
    KeyModel m;
    const auto size = static_cast<double>(h.probe_size);
    if (size == 0.0) return m;  // no probe: nothing bounds the key set
    const double top_draws = std::round(h.dominant_frac * size);
    if (top_draws >= 2.0) m.top = h.dominant_frac;
    const double draws = size - (m.top > 0.0 ? top_draws : 0.0);
    const double seen = static_cast<double>(h.probe_distinct) - (m.top > 0.0 ? 1.0 : 0.0);
    if (seen <= 0.0) {
        m.rest = 0.0;
        return m;
    }
    if (seen >= draws) return m;  // no repeat among the rest
    // The key count whose expected distinct count in `draws` draws is the
    // `seen` the probe found (monotone in the key count: bisect).
    double lo = seen;
    double hi = seen;
    while (expected_distinct(hi, draws) < seen) hi *= 2.0;
    for (int i = 0; i < 40; ++i) {
        const double mid = 0.5 * (lo + hi);
        (expected_distinct(mid, draws) < seen ? lo : hi) = mid;
    }
    m.rest = hi;
    return m;
}

constexpr int kBlockDim = SampleSelectConfig{}.block_dim;
constexpr double kLanes = simt::kWarpSize;
constexpr double kBins = kRadixBins;

/// One predicted launch, priced by the device's own timing model.
double priced(const simt::ArchSpec& arch, int grid, int block, simt::LaunchOrigin origin,
              const simt::KernelCounters& c) {
    simt::KernelProfile p;
    p.grid_dim = grid;
    p.block_dim = block;
    p.origin = origin;
    p.counters = c;
    return simt::simulate_time(arch, p).total_ns;
}

std::uint64_t u64(double x) noexcept { return static_cast<std::uint64_t>(std::max(0.0, x)); }

/// Bitonic network over `m` elements in one block: a compare-exchange per
/// pair per stage, one barrier per stage.
simt::KernelCounters sort_counters(double m) {
    const double lg = std::ceil(std::log2(std::max(2.0, m)));
    const double stages = lg * (lg + 1.0) / 2.0;
    simt::KernelCounters c;
    c.instructions = u64(std::exp2(lg) / 2.0 * stages);
    c.block_barriers = u64(stages + 1.0);
    return c;
}

/// Single-block sort of `m` staged elements (bitonic backend, base cases).
double sort_ns(const simt::ArchSpec& arch, double m, double elem, simt::LaunchOrigin o) {
    simt::KernelCounters c = sort_counters(m);
    c.global_bytes_read = u64(m * elem);
    c.global_bytes_written = u64(m * elem);
    return priced(arch, 1, kBlockDim, o, c);
}

int grid_for(const simt::ArchSpec& arch, double n) {
    return simt::suggest_grid(arch, static_cast<std::size_t>(n), kBlockDim);
}

/// Sample backend: the paper's bucketing levels.  The first level ends in
/// an equality bucket when the rank's key is heavy enough to own two or
/// more of the b-1 splitters (Sec. IV-E); otherwise the filter extracts
/// the rank's bucket (about n/b elements) and the descent goes on until
/// the base-case sort.
double sample_ns(const PlanQuery& q, const KeyModel& m, const simt::ArchSpec& arch) {
    const double elem = static_cast<double>(q.elem_size);
    const double b = q.num_buckets;
    SampleSelectConfig cfg;
    cfg.num_buckets = q.num_buckets;
    const double s = cfg.effective_sample_size();
    const double bucket_keys = expected_distinct(b, kLanes);

    auto level_ns = [&](double n, simt::LaunchOrigin o) {
        const int grid = grid_for(arch, n);
        simt::KernelCounters smp = sort_counters(s);
        smp.scattered_bytes_read = u64(s * elem);
        smp.global_bytes_written = u64((b - 1.0) * elem);
        simt::KernelCounters count;
        count.global_bytes_read = u64(n * elem);
        count.global_bytes_written = u64(n + grid * b * 4.0);  // oracles + partials
        count.shared_atomic_ops = u64(n);
        const double warp_buckets = std::min(m.distinct_in(kLanes), bucket_keys);
        count.shared_atomic_collisions = u64(n * (1.0 - warp_buckets / kLanes));
        simt::KernelCounters reduce;
        reduce.global_bytes_read = u64(grid * b * 4.0);
        reduce.global_bytes_written = u64((grid + 1.0) * b * 4.0);
        simt::KernelCounters locate;
        locate.global_bytes_read = u64(b * 4.0);
        locate.global_bytes_written = u64(b * 4.0);
        return priced(arch, 1, kBlockDim, o, smp) + priced(arch, grid, kBlockDim, o, count) +
               priced(arch, 1, kBlockDim, o, reduce) + priced(arch, 1, kLanes, o, locate);
    };
    auto filter_ns = [&](double n, double kept, simt::LaunchOrigin o) {
        simt::KernelCounters c;
        c.global_bytes_read = u64(n);  // oracle bytes
        c.scattered_bytes_read = u64(kept * elem);
        c.global_bytes_written = u64(kept * elem);
        return priced(arch, grid_for(arch, n), kBlockDim, o, c);
    };

    const auto n = static_cast<double>(q.n);
    const auto base = static_cast<double>(q.base_case_size);
    // Probability that the rank's key owns an equality bucket: a key of
    // share p covers about p*b splitter slots and needs two of them.
    // Unique payloads make every element distinct: no equality buckets.
    auto owns = [&](double p) { return std::clamp(p * b - 1.0, 0.0, 1.0); };
    const double p_eq = q.payload_size > 0 ? 0.0
                                           : m.top * owns(m.top) +
                                                 (1.0 - m.top) * owns(m.rest_share());

    double tail = 0.0;  // filter and deeper levels when the rank misses them
    auto o = simt::LaunchOrigin::host;
    for (double left = n;;) {
        const double kept = std::max(1.0, left / b);
        tail += filter_ns(left, kept, o);
        o = simt::LaunchOrigin::device;
        left = kept;
        if (left <= base) {
            tail += sort_ns(arch, left, elem, o);
            break;
        }
        tail += level_ns(left, o);
    }
    return level_ns(n, simt::LaunchOrigin::host) +
           static_cast<double>(q.thrash_delta) * level_ns(n, simt::LaunchOrigin::device) +
           (1.0 - p_eq) * tail;
}

/// Radix backend: MSD digit passes, each fusing up to kRadixMaxFusedLevels
/// histograms.  While one key remains the walk consumes every fused level
/// without a filter; otherwise the first level that tells the remaining
/// keys apart ends the pass, and the filter keeps the rank's digit bin.
/// Adjacent keys share leading digits, so a pass is modeled as resolving
/// half the bits that still separate the D remaining keys (D -> sqrt(D));
/// unique payload digits (ArgPair indices) make every remaining element a
/// key.  Each histogram level pays one global atomic per distinct digit
/// per warp.
double radix_ns(const PlanQuery& q, const KeyModel& m, const simt::ArchSpec& arch) {
    const double elem = static_cast<double>(q.elem_size);
    const auto base = static_cast<double>(q.base_case_size);
    double left = static_cast<double>(q.n);
    double keys = std::clamp(m.keys(), 1.0, left);
    double warp_keys = m.distinct_in(kLanes);
    double top = m.top;  // the most frequent key's share of the buffer
    int levels = static_cast<int>(q.elem_size) * 8 / kRadixDigitBits;
    const int payload_levels = static_cast<int>(q.payload_size) * 8 / kRadixDigitBits;
    bool payload = false;
    bool first = true;
    auto origin = [&first] {
        const auto o = first ? simt::LaunchOrigin::host : simt::LaunchOrigin::device;
        first = false;
        return o;
    };
    double t = 0.0;
    while (levels > 0) {
        if (keys < 2.0 && levels <= payload_levels) {
            // One key left and only the unique payload digits to go:
            // every element is its own key from here on.
            keys = left;
            top = 0.0;
            payload = true;
        }
        if (left <= base) {
            t += sort_ns(arch, left, elem, origin());
            break;
        }
        const int fuse = std::min(levels, kRadixMaxFusedLevels);
        const int grid = grid_for(arch, left);
        const double warps = std::ceil(left / kLanes);
        const bool one_key = keys < 2.0;
        const int walked = one_key ? fuse : 1;
        const double zero_words = fuse * kBins + 2.0;  // totals + two cursors
        simt::KernelCounters zero;
        zero.global_bytes_written = u64(zero_words * 4.0);
        simt::KernelCounters count;
        count.global_bytes_read = u64(left * elem);
        // Payloads are element indices: a warp's lanes differ in the lowest
        // payload digit and share the others.
        count.global_atomic_ops =
            u64(warps * (payload ? fuse - 1.0 + kLanes : fuse * warp_keys));
        count.warp_ballots = u64(warps * fuse * kRadixDigitBits);
        count.instructions = u64(2.0 * left * fuse);
        simt::KernelCounters walk;
        walk.global_bytes_read = u64(walked * kBins * 4.0);
        walk.global_bytes_written = u64(walked * (kBins + 1.0) * 4.0);
        t += priced(arch, static_cast<int>(std::ceil(zero_words / kBlockDim)), kBlockDim,
                    origin(), zero) +
             priced(arch, grid, kBlockDim, origin(), count) +
             priced(arch, 1, kLanes, origin(), walk);
        levels -= walked;
        if (one_key) continue;
        const double next_keys = std::floor(std::sqrt(keys));
        const double kept = left * std::max(top, next_keys / keys);
        simt::KernelCounters filter;
        filter.global_bytes_read = u64(left * elem);
        filter.global_bytes_written = u64(kept * elem);
        filter.global_atomic_ops = u64(warps);
        filter.instructions = u64(2.0 * left);
        t += priced(arch, grid, kBlockDim, origin(), filter);
        left = kept;
        keys = next_keys;
        top = 0.0;
        warp_keys = expected_distinct(keys, kLanes);
    }
    return t;
}

/// Cheapest feasible, non-quarantined backend among those the estimate
/// chooses between (bitonic is only ever chosen structurally, rule 2).
std::optional<BackendKind> cheapest(const PlanQuery& q, const DistributionHints& h,
                                    const simt::ArchSpec& arch) {
    std::optional<BackendKind> best;
    double best_ns = 0.0;
    for (const BackendKind k : {BackendKind::sample, BackendKind::radix}) {
        if (!feasible(k, q) || quarantined(k, q)) continue;
        const double ns = estimate_ns(k, q, h, arch);
        if (!best || ns < best_ns) {
            best = k;
            best_ns = ns;
        }
    }
    return best;
}

}  // namespace

template <typename T>
DistributionHints probe_distribution(std::span<const T> data) {
    DistributionHints h;
    const std::size_t n = data.size();
    if (n == 0) return h;
    const std::size_t m = std::min(n, kPlannerProbeSize);
    std::array<std::uint64_t, kPlannerProbeSize> keys{};
    const std::size_t stride = n / m;
    for (std::size_t i = 0; i < m; ++i) keys[i] = probe_key(data[i * stride]);
    std::sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(m));
    std::size_t distinct = 1;
    std::size_t run = 1;
    std::size_t best_run = 1;
    for (std::size_t i = 1; i < m; ++i) {
        if (keys[i] == keys[i - 1]) {
            ++run;
        } else {
            ++distinct;
            run = 1;
        }
        best_run = std::max(best_run, run);
    }
    h.probe_size = m;
    h.probe_distinct = distinct;
    h.dominant_frac = static_cast<double>(best_run) / static_cast<double>(m);
    return h;
}

double estimate_ns(BackendKind backend, const PlanQuery& q, const DistributionHints& h,
                   const simt::ArchSpec& arch) {
    switch (backend) {
        case BackendKind::sample: return sample_ns(q, key_model(h), arch);
        case BackendKind::radix: return radix_ns(q, key_model(h), arch);
        case BackendKind::bitonic:
            return sort_ns(arch, static_cast<double>(q.n), static_cast<double>(q.elem_size),
                           simt::LaunchOrigin::host);
    }
    return 0.0;
}

PlanDecision plan(const PlanQuery& q, const DistributionHints& h, const simt::ArchSpec& arch,
                  std::optional<BackendKind> forced) {
    // 0. Environment override, when the forced backend can run the problem
    //    (an infeasible override -- bitonic beyond the sort capacity,
    //    radix/bitonic for a multi-rank tree -- falls through to the
    //    automatic rules rather than failing the selection).  A quarantined
    //    override also falls through: the breaker's verdict on a faulting
    //    backend outranks an operator preference.
    if (forced && feasible(*forced, q) && !quarantined(*forced, q)) {
        return {*forced, "GPUSEL_BACKEND override", true};
    }
    // 1. Multi-rank descent shares one bucket tree across all targets;
    //    only the sampled bucket machinery implements it.
    if (q.multi) {
        return {BackendKind::sample, "multi-rank bucket tree", false};
    }
    // 2. Small problems fit one block: sorting outright beats any level
    //    machinery (this is the recursion base case run as a backend).
    // 3. Deep top-k keeps a constant fraction of the input; radix secures
    //    whole upper-digit bins per pass with a width-bounded level count.
    std::optional<PlanDecision> rule;
    if (q.n <= q.base_case_size) {
        rule = PlanDecision{BackendKind::bitonic, "small n: single-block bitonic sort", false};
    } else if (q.topk && q.k * 4 >= q.n) {
        rule = PlanDecision{BackendKind::radix, "deep top-k (k >= n/4)", false};
    }
    if (rule && !quarantined(rule->backend, q)) return *rule;
    // 4. Everything else (and a quarantined structural pick): the feasible
    //    backend with the lowest modeled cost.
    if (const auto k = cheapest(q, h, arch)) {
        return {*k,
                *k == BackendKind::sample ? "lowest modeled cost: sample"
                                          : "lowest modeled cost: radix",
                false};
    }
    if (feasible(BackendKind::bitonic, q) && !quarantined(BackendKind::bitonic, q)) {
        return {BackendKind::bitonic, "quarantine reroute: bitonic", false};
    }
    // Every feasible backend is quarantined: the quarantine degrades to
    // advisory rather than failing the selection, and the descent's own
    // fault retry carries the risk.
    return {rule ? rule->backend : BackendKind::sample, "all feasible backends quarantined",
            false};
}

void record_planned_decision(simt::Device& dev, const PlanDecision& d, std::uint64_t n,
                             std::uint64_t k, int stream) {
    auto& rc = dev.robustness();
    switch (d.backend) {
        case BackendKind::sample: ++rc.backend_sample; break;
        case BackendKind::radix: ++rc.backend_radix; break;
        case BackendKind::bitonic: ++rc.backend_bitonic; break;
    }
    if (d.env_forced) ++rc.backend_env_overrides;
    simt::PlannerEvent ev;
    ev.stream = stream;
    ev.backend = backend_name(d.backend);
    ev.reason = d.reason;
    ev.n = n;
    ev.k = k;
    ev.env_forced = d.env_forced;
    dev.note_planner_event(std::move(ev));
}

template <typename T>
PlanDecision plan_selection(simt::Device& dev, std::span<const T> data, PlanQuery q,
                            int stream) {
    q.elem_size = sizeof(T);
    if constexpr (is_key_payload_v<T>) q.payload_size = sizeof(T) - sizeof(T{}.key);
    // Sampler-thrash feedback: resamples/fallbacks growth since the mark
    // left by the previous decision -- but only attributed when that
    // decision was for a shape-similar problem (same element width, n
    // within 4x either way).  A dissimilar shape resets the context: the
    // thrash belonged to a different workload and must not bias this one.
    auto& fb = dev.planner_feedback();
    const auto& rc = dev.robustness();
    const std::uint64_t now = rc.resamples + rc.fallbacks;
    const std::uint64_t delta = now - std::min(now, fb.thrash_mark);
    const bool shape_similar =
        fb.prev_n == 0 || (fb.prev_elem_size == sizeof(T) && fb.prev_n / 4 <= q.n &&
                           q.n <= fb.prev_n * 4);
    q.thrash_delta = shape_similar ? delta : 0;
    fb.thrash_mark = now;
    fb.prev_n = q.n;
    fb.prev_elem_size = sizeof(T);
    q.quarantined = dev.backend_quarantine();

    const DistributionHints h = probe_distribution<T>(data);
    const PlanDecision d = plan(q, h, dev.arch(), backend_env_override());
    record_planned_decision(dev, d, q.n, q.k, stream);
    return d;
}

ShardPlan plan_shard_count(std::size_t n, std::size_t elem_size,
                           std::size_t device_capacity_bytes, int num_devices,
                           std::size_t max_shard_elems) {
    ShardPlan p;
    std::size_t budget = max_shard_elems;
    if (budget == 0) {
        const auto staging_bytes =
            static_cast<std::size_t>(static_cast<double>(device_capacity_bytes) *
                                     kShardStagingFraction);
        budget = elem_size > 0 ? staging_bytes / elem_size : staging_bytes;
    }
    if (budget == 0) budget = 1;
    p.shard_elems = budget;
    if (n <= budget) {
        p.shards = 1;
        p.reason = "fits one device";
        return p;
    }
    p.shards = (n + budget - 1) / budget;
    p.reason = "exceeds per-device staging budget";
    // With little oversubscription, spreading over all devices shrinks the
    // critical path at no extra merge cost (the candidate fan-in already
    // visits every used device).
    const auto devices = static_cast<std::size_t>(num_devices < 1 ? 1 : num_devices);
    if (p.shards < devices && devices > 1) {
        p.shards = devices;
        p.reason = "spread over all devices";
    }
    if (p.shards > n) p.shards = n;  // never cut below one element per shard
    p.shard_elems = (n + p.shards - 1) / p.shards;
    return p;
}

template DistributionHints probe_distribution<float>(std::span<const float>);
template DistributionHints probe_distribution<double>(std::span<const double>);
template DistributionHints probe_distribution<ArgPair>(std::span<const ArgPair>);
template PlanDecision plan_selection<float>(simt::Device&, std::span<const float>, PlanQuery,
                                            int);
template PlanDecision plan_selection<double>(simt::Device&, std::span<const double>, PlanQuery,
                                             int);
template PlanDecision plan_selection<ArgPair>(simt::Device&, std::span<const ArgPair>, PlanQuery,
                                              int);

}  // namespace gpusel::core
