#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include "core/sample_select.hpp"
#include "core/shard_select.hpp"
#include "server/service.hpp"
#include "simt/arch.hpp"
#include "simt/device.hpp"
#include "simt/timing.hpp"
#include "simt/topology.hpp"

namespace perfbench {

void Pass::fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
}

void Pass::wrong_answer(std::string why) {
    ++wrong;
    fail(std::move(why));
}

void Pass::absorb(Pass&& more) {
    attempted += more.attempted;
    failed += more.failed;
    wrong += more.wrong;
    for (std::string& e : more.errors) {
        if (errors.size() < 8) errors.push_back(std::move(e));
    }
}

namespace {

using namespace gpusel;

/// Modeled time recorded for a failed or shed op: it misses every latency
/// limit, yet keeps percentiles finite.
constexpr double kMissNs = 1e12;
constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// CPU reference answers
// ---------------------------------------------------------------------------

/// One dataset with its sorted copy: every answer is checked against it
/// outside the timed region.
struct Reference {
    std::vector<float> data;
    std::vector<float> sorted;

    void build() {
        sorted = data;
        std::sort(sorted.begin(), sorted.end());
    }
    [[nodiscard]] float at(std::size_t rank) const { return sorted[rank]; }
    /// Distance from `rank` to the ranks `v` occupies; n + 1 when `v` is
    /// not an element of the data at all.
    [[nodiscard]] std::size_t rank_distance(float v, std::size_t rank) const {
        const auto lo = static_cast<std::size_t>(
            std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
        const auto hi = static_cast<std::size_t>(
            std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
        if (lo == hi) return sorted.size() + 1;
        if (rank < lo) return lo - rank;
        if (rank >= hi) return rank - hi + 1;
        return 0;
    }
};

std::vector<Reference> references(std::vector<std::vector<float>> data) {
    std::vector<Reference> refs(data.size());
    for (std::size_t d = 0; d < data.size(); ++d) {
        refs[d].data = std::move(data[d]);
        refs[d].build();
    }
    return refs;
}

/// Seed of the warm-up inputs: set-up does the same work for every --seed.
constexpr std::uint64_t kWarmupSeed = 0xC0FFEE;

std::string describe(const char* what, std::size_t rank, float got, float want) {
    std::ostringstream os;
    os << what << " rank " << rank << ": got " << got << ", want " << want;
    return os.str();
}

// ---------------------------------------------------------------------------
// Per-layer accounting read from outside the layers
// ---------------------------------------------------------------------------

/// Counters read from the devices' public accessors before and after each
/// traced call.
struct DeviceSnap {
    std::uint64_t launches = 0;
    std::uint64_t allocs = 0;
    std::uint64_t reuses = 0;
    std::uint64_t backend[3] = {0, 0, 0};
    std::uint64_t resamples = 0;

    static DeviceSnap of(const std::vector<simt::Device*>& devs) {
        DeviceSnap s;
        for (simt::Device* d : devs) {
            s.launches += d->launch_count();
            s.allocs += d->tracker().alloc_count();
            s.reuses += d->tracker().reuse_count();
            const simt::RobustnessCounters& rc = d->robustness();
            s.backend[0] += rc.backend_sample;
            s.backend[1] += rc.backend_radix;
            s.backend[2] += rc.backend_bitonic;
            s.resamples += rc.resamples + rc.fallback_levels;
        }
        return s;
    }
    DeviceSnap operator-(const DeviceSnap& o) const {
        DeviceSnap d;
        d.launches = launches - o.launches;
        d.allocs = allocs - o.allocs;
        d.reuses = reuses - o.reuses;
        for (int i = 0; i < 3; ++i) d.backend[i] = backend[i] - o.backend[i];
        d.resamples = resamples - o.resamples;
        return d;
    }
    DeviceSnap& operator+=(const DeviceSnap& o) {
        launches += o.launches;
        allocs += o.allocs;
        reuses += o.reuses;
        for (int i = 0; i < 3; ++i) backend[i] += o.backend[i];
        resamples += o.resamples;
        return *this;
    }
};

/// Everything the traced pass accumulates; turned into the per-layer
/// metric list once the pass ends.
struct LayerAccum {
    KernelLedger ledger;
    DeviceSnap dev;
    std::uint64_t sample_launches = 0;
    double ops = 0.0;
    double elems = 0.0;
    double host_s = 0.0;
    // server
    std::vector<double> admit_s;
    std::vector<double> round_s;
    std::vector<double> queue_delay_ns;
    std::vector<double> service_ns;
    std::vector<double> overlap_x;
    double rounds = 0.0;
    double round_requests = 0.0;
    double shed = 0.0;
    double degraded = 0.0;
    // sharding
    double shards = 0.0;
    double shard_launches = 0.0;
    double link_bytes = 0.0;
    double merge_candidates = 0.0;
    double max_bucket_over_bound = 0.0;
    double max_shard_aux_bytes = 0.0;

    /// Folds the profiles recorded since the last call into the ledger
    /// and drops them, so profile storage never grows with the run.
    void drain_profiles(const std::vector<simt::Device*>& devs) {
        for (simt::Device* d : devs) {
            ledger.add(d->profiles());
            for (const auto& p : d->profiles()) {
                if (p.name == "sample") ++sample_launches;
            }
            d->clear_profiles();
        }
    }

    [[nodiscard]] std::vector<Metric> metrics() const {
        auto per_op = [&](double v) { return ops > 0.0 ? v / ops : 0.0; };
        auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
        std::vector<Metric> m;
        m.push_back({"server.admit_host_us", median(admit_s) * 1e6, "us"});
        m.push_back({"server.round_host_ms", median(round_s) * 1e3, "ms"});
        m.push_back({"server.queue_delay_p99_us", percentile(queue_delay_ns, 99.0) / 1e3, "us"});
        m.push_back({"server.service_p50_us", median(service_ns) / 1e3, "us"});
        m.push_back({"server.round_size", ratio(round_requests, rounds), "requests"});
        m.push_back({"server.shed", shed, "count"});
        m.push_back({"server.degraded", degraded, "count"});
        m.push_back({"batch.overlap_x", mean(overlap_x), "x"});
        const char* backends[3] = {"sample", "radix", "bitonic"};
        for (std::size_t b = 0; b < 3; ++b) {
            m.push_back({std::string("planner.backend_") + backends[b],
                         per_op(static_cast<double>(dev.backend[b])), "1/op"});
        }
        m.push_back(
            {"pipeline.levels_per_op", per_op(static_cast<double>(sample_launches)), "1/op"});
        m.push_back({"pipeline.resamples", per_op(static_cast<double>(dev.resamples)), "1/op"});
        const double total = ledger.total_sim_ns();
        for (int f = 0; f < fam_count_of; ++f) {
            const auto i = static_cast<std::size_t>(f);
            m.push_back({std::string("kernel.") + family_name(f) + ".model_share",
                         ratio(ledger.sim_ns[i], total), "fraction"});
            m.push_back({std::string("kernel.") + family_name(f) + ".launches_per_op",
                         per_op(static_cast<double>(ledger.launches[i])), "1/op"});
        }
        m.push_back(
            {"kernel.bytes_per_elem", ratio(static_cast<double>(ledger.global_bytes), elems),
             "B/elem"});
        m.push_back({"kernel.atomic_collision_frac",
                     ratio(static_cast<double>(ledger.atomic_collisions),
                           static_cast<double>(ledger.atomic_ops)),
                     "fraction"});
        m.push_back({"pool.allocs_per_op", per_op(static_cast<double>(dev.allocs)), "1/op"});
        m.push_back({"pool.reuse_frac",
                     ratio(static_cast<double>(dev.reuses),
                           static_cast<double>(dev.allocs + dev.reuses)),
                     "fraction"});
        m.push_back({"simt.host_ns_per_launch",
                     ratio(host_s * 1e9, static_cast<double>(dev.launches)), "ns"});
        m.push_back({"simt.host_ns_per_elem", ratio(host_s * 1e9, elems), "ns"});
        m.push_back({"shard.launches_per_shard", ratio(shard_launches, shards), "1/shard"});
        m.push_back({"shard.link_bytes_per_op", per_op(link_bytes), "B"});
        m.push_back({"shard.merge_candidates", per_op(merge_candidates), "count"});
        m.push_back({"shard.max_bucket_over_bound", max_bucket_over_bound, "fraction"});
        m.push_back({"shard.max_shard_aux_mb", max_shard_aux_bytes / kMiB, "MB"});
        return m;
    }
};

// ---------------------------------------------------------------------------
// Closed loops
// ---------------------------------------------------------------------------

/// One closed-loop op: the library call's modeled and host time and the
/// result checked against the reference.
struct OpOut {
    double model_ns = 0.0;
    double host_s = 0.0;
    double aux_bytes = 0.0;
    bool ok = true;
    bool wrong = false;  ///< returned, but disagrees with the reference
    std::string why;
    const core::ShardAccounting* acct = nullptr;
};

/// Back-to-back selections: the next op starts when the previous one
/// returned.  Subclasses supply the data, the devices and the call.
class ClosedLoop : public Workload {
public:
    void make_inputs(std::uint64_t seed) override {
        seed_ = seed;
        extra_ranks_ = Rng(derive_seed(seed, 2));
        refs_ = references(generate(seed));
        std::vector<std::vector<float>> warm = generate(kWarmupSeed);
        warm.resize(std::min<std::size_t>(warm.size(), kWarmupDatasets));
        warm_refs_ = references(std::move(warm));
    }
    [[nodiscard]] std::uint64_t input_digest(std::uint64_t seed) const override {
        Digest d;
        for (const std::vector<float>& v : generate(seed)) d.add_floats(v);
        return d.value();
    }

    Pass run(SpanLog* spans) override {
        Pass pass;
        LayerAccum acc;
        Digest digest;
        Rng ranks(derive_seed(seed_, 1));
        const std::vector<simt::Device*> devs = devices();
        const double t_start = host_now_s();
        for (int i = 0; i < fixed_ops(); ++i) {
            const Reference& ref = dataset(i);
            const std::size_t rank = ranks.below(ref.data.size());
            const DeviceSnap before = spans ? DeviceSnap::of(devs) : DeviceSnap{};
            OpOut out = op(ref, rank, digest, spans);
            record(pass, out, ref, rank);
            if (spans) {
                acc.dev += DeviceSnap::of(devs) - before;
                acc.drain_profiles(devs);
                acc.ops += 1.0;
                acc.elems += static_cast<double>(ref.data.size());
                acc.host_s += out.host_s;
                if (out.acct != nullptr) {
                    const core::ShardAccounting& a = *out.acct;
                    acc.shards += static_cast<double>(a.shards);
                    acc.shard_launches += static_cast<double>(a.launches);
                    acc.link_bytes += static_cast<double>(a.link_bytes);
                    acc.merge_candidates += static_cast<double>(a.merge_candidates);
                    if (a.skew_bound > 0) {
                        acc.max_bucket_over_bound =
                            std::max(acc.max_bucket_over_bound,
                                     static_cast<double>(a.max_bucket) /
                                         static_cast<double>(a.skew_bound));
                    }
                    acc.max_shard_aux_bytes = std::max(
                        acc.max_shard_aux_bytes, static_cast<double>(a.max_shard_aux_bytes));
                }
            }
        }
        pass.host_s = host_now_s() - t_start;
        pass.digest = digest.value();
        if (spans) pass.layers = acc.metrics();
        return pass;
    }

    void extend(Pass& pass) override {
        // Each call continues where the last one stopped, so successive
        // calls check new ranks.
        Digest scratch;
        Pass more;
        for (const int end = extra_ops_ + spacing_ops(); extra_ops_ < end; ++extra_ops_) {
            const Reference& ref = dataset(extra_ops_);
            const std::size_t rank = extra_ranks_.below(ref.data.size());
            record(more, op(ref, rank, scratch, nullptr), ref, rank);
        }
        pass.absorb(std::move(more));
    }

    /// A closed loop has no offered rate: its figure is the rate it
    /// completes ops at, successful ops / their summed modeled time.
    Slo slo_rate(const Pass& pass) override {
        const auto done = static_cast<double>(std::count_if(
            pass.model_ns.begin(), pass.model_ns.end(), [](double t) { return t < kMissNs; }));
        return {pass.model_span_ns > 0.0 ? done / (pass.model_span_ns / 1e9) : 0.0, 0.0, {}};
    }

protected:
    /// The workload's datasets; op i runs on dataset i mod their count.
    [[nodiscard]] virtual std::vector<std::vector<float>> generate(std::uint64_t seed) const = 0;
    [[nodiscard]] virtual std::vector<simt::Device*> devices() = 0;
    [[nodiscard]] virtual int fixed_ops() const noexcept = 0;
    /// Ops in one extend() block.
    [[nodiscard]] virtual int spacing_ops() const noexcept = 0;
    /// Runs one selection of `rank`, timing only the library call, then
    /// checks the answer and folds the modeled results into `digest`.
    [[nodiscard]] virtual OpOut op(const Reference& ref, std::size_t rank, Digest& digest,
                                   SpanLog* spans) = 0;

    [[nodiscard]] const Reference& dataset(int i) const {
        return refs_[static_cast<std::size_t>(i) % refs_.size()];
    }

    /// Warm-up ops run by setup(), on inputs and ranks that are the same
    /// for every seed; their answers are checked as well.
    void warm_up(int count) {
        Rng ranks(derive_seed(kWarmupSeed, 4));
        Digest scratch;
        for (int i = 0; i < count; ++i) {
            const Reference& ref = warm_refs_[static_cast<std::size_t>(i) % warm_refs_.size()];
            const std::size_t rank = ranks.below(ref.data.size());
            const OpOut out = op(ref, rank, scratch, nullptr);
            if (!out.ok) side_errors_.push_back("warm-up " + out.why);
        }
    }

    static void record(Pass& pass, const OpOut& out, const Reference& ref, std::size_t rank) {
        const auto n = static_cast<double>(ref.data.size());
        ++pass.attempted;
        pass.host_s_per_elem.push_back(out.host_s / n);
        if (!out.ok) {
            std::string why = out.why.empty() ? "rank " + std::to_string(rank) : out.why;
            if (out.wrong) {
                pass.wrong_answer(std::move(why));
            } else {
                pass.fail(std::move(why));
            }
            pass.model_ns.push_back(kMissNs);
            return;
        }
        pass.model_ns.push_back(out.model_ns);
        pass.model_elems += n;
        pass.model_span_ns += out.model_ns;
        pass.peak_aux_bytes = std::max(pass.peak_aux_bytes, out.aux_bytes);
    }

    static constexpr std::size_t kWarmupDatasets = 2;

    std::uint64_t seed_ = 0;
    std::vector<Reference> refs_;
    std::vector<Reference> warm_refs_;
    /// Ops extend() has run so far, and the ranks it draws.
    int extra_ops_ = 0;
    Rng extra_ranks_{0};
};

/// Single-device selection through the public try_sample_select front-end
/// (the planner picks the backend).
class SingleDeviceSelect : public ClosedLoop {
public:
    void setup(bool record_profiles) override {
        dev_.reset();
        dev_ = std::make_unique<simt::Device>(
            simt::arch_v100(),
            simt::DeviceOptions{.host_workers = 0, .record_profiles = record_profiles});
        warm_up(kWarmupOps);
    }

protected:
    static constexpr int kWarmupOps = 2;

    std::vector<simt::Device*> devices() override { return {dev_.get()}; }

    OpOut op(const Reference& ref, std::size_t rank, Digest& digest, SpanLog* spans) override {
        OpOut out;
        const std::span<const float> in(ref.data);
        const double t0 = host_now_s();
        auto res = [&] {
            SpanLog::Scope s(spans, "core.try_sample_select");
            return core::try_sample_select<float>(*dev_, in, rank, cfg_);
        }();
        out.host_s = host_now_s() - t0;
        if (!res.ok()) {
            out.ok = false;
            out.why = "select rank " + std::to_string(rank) + ": " + res.status().message;
            digest.add(static_cast<int>(res.status().code));
            return out;
        }
        const core::SelectResult<float>& r = res.value();
        out.model_ns = r.sim_ns;
        out.aux_bytes = static_cast<double>(r.aux_bytes);
        digest.add(r.value);
        digest.add(r.sim_ns);
        digest.add(r.launches);
        digest.add(r.levels);
        digest.add(r.aux_bytes);
        digest.add(r.equality_exit);
        if (r.value != ref.at(rank)) {
            out.ok = false;
            out.wrong = true;
            out.why = describe("select", rank, r.value, ref.at(rank));
        }
        return out;
    }

    std::unique_ptr<simt::Device> dev_;
    core::SampleSelectConfig cfg_;
};

/// select_large: uniform reals at n = 2^22; count and filter dominate.
class SelectLarge final : public SingleDeviceSelect {
public:
    const char* name() const noexcept override { return "select_large"; }

protected:
    int fixed_ops() const noexcept override { return 100; }
    int spacing_ops() const noexcept override { return 3; }
    std::vector<std::vector<float>> generate(std::uint64_t seed) const override {
        Rng rng(derive_seed(seed, 10));
        std::vector<float> v(std::size_t{1} << 22);
        for (float& x : v) x = static_cast<float>(rng.uniform());
        return {std::move(v)};
    }
};

/// select_dups: duplicate-heavy keys, 32 datasets of n = 2^18 visited in
/// turn.  In each, half the keys share one value, 30 % share six more and
/// 20 % are distinct reals, so the planner's probe sees a dominant key and
/// routes to the radix backend; most ranks end in an equality bucket, the
/// rest descend all digits.  How many digit levels isolate a value depends
/// on its bits, so a single dataset's cost moved by over 10 % with the
/// seed; 32 of them average that out.
class SelectDups final : public SingleDeviceSelect {
public:
    const char* name() const noexcept override { return "select_dups"; }

protected:
    int fixed_ops() const noexcept override { return 200; }
    int spacing_ops() const noexcept override { return 15; }
    std::vector<std::vector<float>> generate(std::uint64_t seed) const override {
        Rng rng(derive_seed(seed, 11));
        std::vector<std::vector<float>> sets(32, std::vector<float>(std::size_t{1} << 18));
        for (std::vector<float>& v : sets) {
            float heavy[7];
            for (float& h : heavy) h = static_cast<float>(rng.uniform());
            for (float& x : v) {
                const double u = rng.uniform();
                if (u < 0.5) {
                    x = heavy[0];
                } else if (u < 0.8) {
                    x = heavy[1 + rng.below(6)];
                } else {
                    x = static_cast<float>(rng.uniform());
                }
            }
        }
        return sets;
    }
};

/// shard_oversize: exact sharded selection over 2 devices whose modeled
/// memory (256 KiB each) is a quarter of the 2^18-float input: 16 shards.
class ShardOversize final : public ClosedLoop {
public:
    const char* name() const noexcept override { return "shard_oversize"; }

    void setup(bool record_profiles) override {
        group_.reset();
        simt::TopologySpec spec;
        spec.num_devices = 2;
        spec.arch = simt::arch_v100();
        spec.mem_capacity_bytes = 256 * 1024;
        spec.device_opts = {.host_workers = 0, .record_profiles = record_profiles};
        group_ = std::make_unique<simt::DeviceGroup>(spec);
        warm_up(1);
    }

protected:
    int fixed_ops() const noexcept override { return 100; }
    int spacing_ops() const noexcept override { return 1; }
    std::vector<std::vector<float>> generate(std::uint64_t seed) const override {
        Rng rng(derive_seed(seed, 12));
        std::vector<float> v(std::size_t{1} << 18);
        for (float& x : v) x = static_cast<float>(rng.uniform());
        return {std::move(v)};
    }
    std::vector<simt::Device*> devices() override {
        std::vector<simt::Device*> d;
        for (int i = 0; i < group_->size(); ++i) d.push_back(&group_->device(i));
        return d;
    }

    OpOut op(const Reference& ref, std::size_t rank, Digest& digest, SpanLog* spans) override {
        OpOut out;
        const std::span<const float> in(ref.data);
        const double t0 = host_now_s();
        auto res = [&] {
            SpanLog::Scope s(spans, "core.try_sharded_select");
            return core::try_sharded_select<float>(*group_, in, rank, cfg_);
        }();
        out.host_s = host_now_s() - t0;
        if (!res.ok()) {
            out.ok = false;
            out.why = "sharded rank " + std::to_string(rank) + ": " + res.status().message;
            digest.add(static_cast<int>(res.status().code));
            return out;
        }
        last_ = res.value();
        const core::ShardAccounting& a = last_.acct;
        out.model_ns = a.sim_ns;
        out.aux_bytes = static_cast<double>(a.max_shard_aux_bytes);
        out.acct = &last_.acct;
        digest.add(last_.value);
        digest.add(a.sim_ns);
        digest.add(a.launches);
        digest.add(a.link_bytes);
        digest.add(a.shards);
        digest.add(a.merge_candidates);
        digest.add(a.max_bucket);
        digest.add(a.skew_bound);
        digest.add(a.max_shard_aux_bytes);
        if (last_.value != ref.at(rank)) {
            out.ok = false;
            out.wrong = true;
            out.why = describe("sharded select", rank, last_.value, ref.at(rank));
        } else if (a.max_bucket > a.skew_bound && a.skew_bound > 0) {
            out.ok = false;
            out.wrong = true;
            out.why = "sharded select: max_bucket exceeds skew_bound";
        }
        return out;
    }

    std::unique_ptr<simt::DeviceGroup> group_;
    core::ShardSelectConfig cfg_;
    core::ShardedSelectResult<float> last_;
};

// ---------------------------------------------------------------------------
// serve_small: open-loop Poisson traffic through SelectServer
// ---------------------------------------------------------------------------

/// One pre-drawn request: kind, dataset, rank and its unit-mean
/// inter-arrival gap (scaled by 1/rate when the request is offered).
struct RequestSpec {
    server::RequestKind kind = server::RequestKind::select;
    std::size_t dataset = 0;
    std::size_t rank = 0;
    std::size_t k = 0;
    double q = 0.0;
    bool approx = false;
    int tenant = 0;
    double gap = 0.0;
};

/// A request stream: the seed requests are drawn from and the datasets
/// they run on.
struct Stream {
    std::uint64_t seed = 0;
    const std::vector<Reference>* sets = nullptr;
};

/// What one open-loop run against a fresh SelectServer produced.
struct ServeRun {
    std::vector<double> latency_ns;  ///< kMissNs for failed / shed / wrong
    double p99_ns = 0.0;
    double p99_last_quarter_ns = 0.0;
    std::uint64_t shed = 0;
};

class ServeSmall final : public Workload {
public:
    const char* name() const noexcept override { return "serve_small"; }

    void make_inputs(std::uint64_t seed) override {
        seed_ = seed;
        sets_ = references(generate(seed));
        warm_sets_ = references(generate(kWarmupSeed));
    }
    std::uint64_t input_digest(std::uint64_t seed) const override {
        Digest d;
        for (const std::vector<float>& v : generate(seed)) d.add_floats(v);
        for (std::size_t i = 0; i < 64; ++i) {
            const RequestSpec s = spec(seed, i);
            d.add(s.rank);
            d.add(s.gap);
        }
        return d.value();
    }

    void setup(bool record_profiles) override {
        dev_.reset();
        dev_ = std::make_unique<simt::Device>(
            simt::arch_v100(),
            simt::DeviceOptions{.host_workers = 0, .record_profiles = record_profiles});
        Pass scratch;
        warm_up(*dev_, scratch);
        for (const std::string& e : scratch.errors) side_errors_.push_back("warm-up " + e);
    }

    Pass run(SpanLog* spans) override {
        Pass pass;
        LayerAccum acc;
        const double t0 = host_now_s();
        serve(*dev_, kRate, 0, kRequests, spans, spans ? &acc : nullptr, pass, {seed_, &sets_});
        pass.host_s = host_now_s() - t0;
        pass.peak_aux_bytes = full_batch_aux_bytes();
        if (spans) pass.layers = acc.metrics();
        return pass;
    }

    void extend(Pass& pass) override {
        // More requests of the stream, past the fixed sequence and past
        // those of earlier calls, at the nominal rate: checked answers only.
        Pass more;
        serve(*dev_, kRate, next_extra_, kExtendRequests, nullptr, nullptr, more,
              {seed_, &sets_});
        next_extra_ += kExtendRequests;
        pass.absorb(std::move(more));
    }

    Slo slo_rate(const Pass& /*pass*/) override {
        // Deterministic search on the modeled clock.  Every probe runs the
        // same request prefix (common random numbers, gaps scaled by 1/rate)
        // on a fresh warmed device, so it depends only on its rate.
        auto probe = [&](double rate) {
            simt::Device dev(simt::arch_v100(),
                             simt::DeviceOptions{.host_workers = 0, .record_profiles = false});
            Pass scratch;
            warm_up(dev, scratch);
            ServeRun r =
                serve(dev, rate, 0, kProbeRequests, nullptr, nullptr, scratch, {seed_, &sets_});
            // Shedding above the knee is what the search looks for; a
            // wrong answer at any rate is not.
            if (scratch.wrong > 0) {
                side_errors_.push_back("SLO probe at " + num(rate) +
                                       " rps returned wrong answers");
            }
            return r;
        };
        // The latency a probe is held to: its p99, overall and over the last
        // quarter of arrivals (no growing backlog).  A failed request
        // already counts as a miss in both; a shed one fails the probe.
        Slo slo{0.0, kLimitNs / 1e3, {}};
        auto score = [&](double rate) {
            const ServeRun r = probe(rate);
            const double s = r.shed > 0 ? kMissNs : std::max(r.p99_ns, r.p99_last_quarter_ns);
            slo.probes.emplace_back(rate, s / 1e3);
            return s;
        };
        double lo = kSloLo;
        double hi = kSloHi;
        double s_lo = score(lo);
        if (s_lo > kLimitNs) return slo;
        double s_hi = score(hi);
        // Widen until the upper probe misses, so a faster server is not
        // capped at the initial bracket.
        while (s_hi <= kLimitNs) {
            if (hi >= kSloMax) {
                slo.rate_rps = hi;
                return slo;
            }
            lo = hi;
            s_lo = s_hi;
            hi *= 2.0;
            s_hi = score(hi);
        }
        // Bisect (log-rate); keep going past kSloSteps while the upper end
        // sheds, so the interpolation below has two finite scores.
        for (int it = 0; it < kSloSteps || (s_hi >= kMissNs && it < kSloMaxSteps); ++it) {
            const double mid = std::sqrt(lo * hi);
            const double s = score(mid);
            (s <= kLimitNs ? lo : hi) = mid;
            (s <= kLimitNs ? s_lo : s_hi) = s;
        }
        // Interpolate the score across the final bracket (log-rate) so the
        // reported rate varies smoothly instead of snapping to the grid.
        double frac = 0.0;
        if (s_hi < kMissNs) frac = std::clamp((kLimitNs - s_lo) / (s_hi - s_lo), 0.0, 1.0);
        slo.rate_rps = lo * std::pow(hi / lo, frac);
        return slo;
    }

private:
    static constexpr std::size_t kN = std::size_t{1} << 16;
    static constexpr std::size_t kDatasets = 4;
    static constexpr int kTenants = 4;
    static constexpr double kRate = 16000.0;
    static constexpr std::size_t kRequests = 9000;
    static constexpr std::size_t kWindowRequests = 16;
    static constexpr std::size_t kWarmupRequests = 32;
    static constexpr std::size_t kExtendRequests = 150;
    static constexpr std::size_t kProbeRequests = 1500;
    static constexpr double kLimitNs = 1e6;
    static constexpr double kSloLo = 16000.0;
    static constexpr double kSloHi = 64000.0;
    /// Widening stops here: 16x the initial upper probe.
    static constexpr double kSloMax = 1024000.0;
    static constexpr int kSloSteps = 3;
    static constexpr int kSloMaxSteps = 8;
    /// Kind slots per stratification block: top-k, argselect, quantile,
    /// approx and six exact selects.
    static constexpr std::size_t kKindSlots = 10;
    static constexpr std::size_t kBlock = kKindSlots * kDatasets;

    /// Request i of the seed's stream (random access: request i is the
    /// same whichever run offers it).  The kind mix is the service's
    /// default: 10 % top-k, 10 % argselect, 10 % quantile, 10 % explicit
    /// approximate select, the rest exact select.  Kinds and datasets are
    /// stratified: every block of kBlock consecutive requests holds each
    /// (kind slot, dataset) pair exactly once, in a seeded order.  With
    /// independent draws the share of the costly pairs (top-k / argselect
    /// on the low-distinct dataset go to the radix backend) wandered enough
    /// between seeds to move the latency knee by over 10 %.
    [[nodiscard]] static RequestSpec spec(std::uint64_t seed, std::size_t i) {
        std::array<std::size_t, kBlock> slot{};
        for (std::size_t j = 0; j < kBlock; ++j) slot[j] = j;
        Rng shuffle(derive_seed(seed, 1'000'000'000 + i / kBlock));
        for (std::size_t j = kBlock - 1; j > 0; --j) {
            std::swap(slot[j], slot[shuffle.below(j + 1)]);
        }
        const std::size_t pair = slot[i % kBlock];
        Rng rng(derive_seed(seed, 1000 + i));
        RequestSpec s;
        s.dataset = pair / kKindSlots;
        s.rank = rng.below(kN);
        s.tenant = static_cast<int>(i % kTenants);
        s.gap = rng.exponential(1.0);
        switch (pair % kKindSlots) {
            case 0:
                s.kind = server::RequestKind::topk;
                s.k = 1 + s.rank % 64;
                break;
            case 1: s.kind = server::RequestKind::argselect; break;
            case 2:
                s.kind = server::RequestKind::quantile;
                s.q = static_cast<double>(s.rank) / static_cast<double>(kN - 1);
                break;
            case 3: s.approx = true; break;
            default: break;  // exact select
        }
        return s;
    }

    [[nodiscard]] static std::vector<std::vector<float>> generate(std::uint64_t seed) {
        std::vector<std::vector<float>> sets(kDatasets, std::vector<float>(kN));
        Rng rng(derive_seed(seed, 20));
        for (std::size_t d = 0; d < kDatasets; ++d) {
            if (d + 1 == kDatasets) {
                // Low-distinct dataset: 64 values, so duplicates dominate.
                float values[64];
                for (float& x : values) x = static_cast<float>(rng.uniform());
                for (float& x : sets[d]) x = values[rng.below(64)];
            } else {
                for (float& x : sets[d]) x = static_cast<float>(rng.uniform());
            }
        }
        return sets;
    }

    /// The serving figure of device_peak_aux_mb: the memory pool's backing
    /// capacity (staged inputs plus scratch) after the stream's first
    /// kProbeRequests requests are offered at kSloHi, far past the knee,
    /// to a fresh warmed device.  There every round coalesces a full batch,
    /// so the figure is the footprint of full batches.  The server reports
    /// no per-request aux bytes, and the calls inside a round reset the
    /// tracker's peak; the pool's capacity only grows, as no library call
    /// trims it outside an allocation-fault retry, and none are injected
    /// here.  Read at kRate, the high-water mark is set by each seed's
    /// burstiest round, a rare event, and takes one of a few levels a
    /// whole staged input apart.
    double full_batch_aux_bytes() {
        simt::Device dev(simt::arch_v100(),
                         simt::DeviceOptions{.host_workers = 0, .record_profiles = false});
        Pass scratch;
        warm_up(dev, scratch);
        serve(dev, kSloHi, 0, kProbeRequests, nullptr, nullptr, scratch, {seed_, &sets_});
        // Shedding is expected this far past the knee; wrong answers are not.
        if (scratch.wrong > 0) side_errors_.push_back("full-batch run returned wrong answers");
        return static_cast<double>(dev.pool().stats().reserved_bytes);
    }

    /// Warm-up burst: the same requests on the same datasets for every
    /// seed, so set-up does the same work whatever the seed.
    void warm_up(simt::Device& dev, Pass& scratch) {
        serve(dev, kRate, 0, kWarmupRequests, nullptr, nullptr, scratch,
              {kWarmupSeed, &warm_sets_});
    }

    /// The rank a select or quantile request asks for.  Quantiles use
    /// QuantileMethod::nearest: rank = round(q * (n - 1)).
    [[nodiscard]] static std::size_t target_rank(const RequestSpec& s) {
        return s.kind == server::RequestKind::quantile
                   ? static_cast<std::size_t>(std::round(s.q * static_cast<double>(kN - 1)))
                   : s.rank;
    }

    /// Checks one response against the reference; empty when correct.
    [[nodiscard]] static std::string check(const Reference& ref, const RequestSpec& s,
                                           const server::Response& r) {
        switch (s.kind) {
            case server::RequestKind::select:
            case server::RequestKind::quantile: {
                const std::size_t rank = target_rank(s);
                if (r.mode != server::ResponseMode::exact) {
                    // Its distance to the rank is held to the reported
                    // bound by serve(); here it only has to be a key.
                    if (ref.rank_distance(r.value, rank) > kN) {
                        return "approx rank " + std::to_string(rank) + ": not an input key";
                    }
                    return {};
                }
                if (r.value != ref.at(rank)) return describe("select", rank, r.value, ref.at(rank));
                return {};
            }
            case server::RequestKind::topk: {
                std::vector<float> got = r.values;
                if (got.size() != s.k) return "topk: wrong count";
                std::sort(got.begin(), got.end());
                const auto top = ref.sorted.end() - static_cast<std::ptrdiff_t>(s.k);
                if (!std::equal(got.begin(), got.end(), top)) {
                    return "topk k=" + std::to_string(s.k) + ": multiset differs";
                }
                return {};
            }
            case server::RequestKind::argselect:
                if (r.index >= kN || ref.data[r.index] != r.value) {
                    return "argselect rank " + std::to_string(s.rank) + ": index does not hold key";
                }
                if (r.value != ref.at(s.rank)) {
                    return describe("argselect", s.rank, r.value, ref.at(s.rank));
                }
                return {};
        }
        return "unknown kind";
    }

    /// Offers requests [first, first + count) of the stream at `rate` to a
    /// fresh server on `dev`, open loop: each request is stamped with its
    /// Poisson arrival, the server is pumped up to (not past) it, and it is
    /// submitted however far behind the server runs.  Then pumps the queue
    /// empty.  Answers are checked after the last round.
    /// Request i of a run is spec(stream.seed, first + i) on stream.sets.
    ServeRun serve(simt::Device& dev, double rate, std::size_t first, std::size_t count,
                   SpanLog* spans, LayerAccum* acc, Pass& pass, const Stream& stream) {
        const std::vector<Reference>& sets = *stream.sets;
        server::ServerConfig cfg;
        cfg.streams = 8;  // explicit: GPUSEL_STREAMS must not change the run
        server::SelectServer srv(dev, cfg);
        const std::vector<simt::Device*> devs = {&dev};

        struct Open {
            std::future<server::Response> fut;
            std::size_t idx;
        };
        std::vector<Open> open;
        std::vector<std::pair<std::size_t, server::Response>> done;
        std::vector<RequestSpec> specs(count);
        for (std::size_t i = 0; i < count; ++i) specs[i] = spec(stream.seed, first + i);

        // Host samples are windows of consecutive rounds holding at least
        // kWindowRequests requests: one round's cost depends on which kinds
        // it happened to batch, a window's averages over the mix.
        double window_s = 0.0;
        std::size_t window_requests = 0;
        auto harvest = [&]() {
            std::size_t resolved = 0;
            for (std::size_t j = 0; j < open.size();) {
                if (open[j].fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
                    done.emplace_back(open[j].idx, open[j].fut.get());
                    open[j] = std::move(open.back());
                    open.pop_back();
                    ++resolved;
                } else {
                    ++j;
                }
            }
            return resolved;
        };
        // One dispatch round, timed on the host; false when none ran.
        auto round = [&](bool limited, double limit_ns) {
            const DeviceSnap before = acc ? DeviceSnap::of(devs) : DeviceSnap{};
            const double t0 = host_now_s();
            bool did = false;
            {
                SpanLog::Scope s(spans, "server.pump_until");
                did = limited ? srv.pump_until(limit_ns) : srv.pump();
            }
            const double dt = host_now_s() - t0;
            if (!did) return false;
            const std::size_t resolved = harvest();
            window_s += dt;
            window_requests += resolved;
            if (window_requests >= kWindowRequests) {
                pass.host_s_per_elem.push_back(window_s /
                                               static_cast<double>(window_requests * kN));
                window_s = 0.0;
                window_requests = 0;
            }
            if (acc) {
                acc->dev += DeviceSnap::of(devs) - before;
                acc->overlap_x.push_back(simt::summarize_overlap(dev.profiles()).overlap_x());
                acc->drain_profiles(devs);
                acc->round_s.push_back(dt);
                acc->rounds += 1.0;
                acc->round_requests += static_cast<double>(resolved);
                acc->host_s += dt;
                acc->elems += static_cast<double>(resolved * kN);
            }
            return true;
        };

        double arrival = srv.now_ns();
        for (std::size_t i = 0; i < count; ++i) {
            const RequestSpec& s = specs[i];
            arrival += s.gap * 1e9 / rate;
            while (round(true, arrival)) {
            }
            server::Request req;
            req.kind = s.kind;
            req.data = sets[s.dataset].data;
            req.rank = s.rank;
            req.k = s.k;
            req.q = s.q;
            req.approx = s.approx;
            req.tenant = s.tenant;
            req.arrival_ns = arrival;
            const double t0 = host_now_s();
            std::future<server::Response> fut;
            {
                SpanLog::Scope sc(spans, "server.submit");
                fut = srv.submit(std::move(req));
            }
            if (acc) acc->admit_s.push_back(host_now_s() - t0);
            if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
                done.emplace_back(i, fut.get());  // rejected at admission
            } else {
                open.push_back({std::move(fut), i});
            }
        }
        while (round(false, 0.0)) {
        }
        harvest();

        ServeRun out;
        if (!open.empty()) {
            pass.fail("server left " + std::to_string(open.size()) + " requests unresolved");
        }
        std::sort(done.begin(), done.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        Digest digest;
        double first_arrival = std::numeric_limits<double>::max();
        double last_finish = 0.0;
        std::vector<double> last_quarter;
        for (const auto& [i, r] : done) {
            ++pass.attempted;
            digest.add(static_cast<int>(r.status.code));
            digest.add(static_cast<int>(r.mode));
            digest.add(r.value);
            digest.add(r.index);
            digest.add(r.arrival_ns);
            digest.add(r.start_ns);
            digest.add(r.finish_ns);
            first_arrival = std::min(first_arrival, r.arrival_ns);
            double lat = kMissNs;
            if (!r.status.ok()) {
                if (r.status.code == core::SelectError::overloaded) ++out.shed;
                pass.fail(std::string("request ") + server::request_kind_name(specs[i].kind) +
                          ": " + r.status.message);
            } else if (std::string why = check(sets[specs[i].dataset], specs[i], r);
                       !why.empty()) {
                pass.wrong_answer(std::move(why));
            } else if (const std::size_t d =
                           r.mode == server::ResponseMode::exact
                               ? 0
                               : sets[specs[i].dataset].rank_distance(r.value,
                                                                       target_rank(specs[i]));
                       d > r.rank_error_bound) {
                // An input key near the rank, but farther from it than the
                // rank-error bound the response reports.
                pass.fail("approximate answer outside its reported bound: rank " +
                          std::to_string(target_rank(specs[i])) + " off by " +
                          std::to_string(d) + " > bound " + std::to_string(r.rank_error_bound));
            } else {
                lat = r.latency_ns();
                last_finish = std::max(last_finish, r.finish_ns);
                pass.model_elems += static_cast<double>(kN);
                if (acc) {
                    acc->queue_delay_ns.push_back(r.queue_delay_ns());
                    acc->service_ns.push_back(r.finish_ns - r.start_ns);
                    if (r.mode == server::ResponseMode::degraded) acc->degraded += 1.0;
                }
            }
            out.latency_ns.push_back(lat);
            if (i >= count - count / 4) last_quarter.push_back(lat);
        }
        if (acc) acc->shed += static_cast<double>(out.shed);
        pass.model_ns.insert(pass.model_ns.end(), out.latency_ns.begin(), out.latency_ns.end());
        pass.model_span_ns += std::max(0.0, last_finish - first_arrival);
        pass.digest ^= digest.value();
        out.p99_ns = percentile(out.latency_ns, 99.0);
        out.p99_last_quarter_ns = percentile(last_quarter, 99.0);
        if (acc) {
            acc->ops += static_cast<double>(count);
        }
        return out;
    }

    std::uint64_t seed_ = 0;
    /// First request of the stream the next extend() call offers.
    std::size_t next_extra_ = kRequests;
    std::vector<Reference> sets_;
    std::vector<Reference> warm_sets_;
    std::unique_ptr<simt::Device> dev_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"serve_small", "select_large", "select_dups",
                                                   "shard_oversize"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "serve_small") return std::make_unique<ServeSmall>();
    if (name == "select_large") return std::make_unique<SelectLarge>();
    if (name == "select_dups") return std::make_unique<SelectDups>();
    if (name == "shard_oversize") return std::make_unique<ShardOversize>();
    return nullptr;
}

}  // namespace perfbench
