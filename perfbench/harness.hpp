#pragma once
// Measurement plumbing shared by the perfbench workloads (README.md):
// seeded input generation, order statistics over per-op samples, host
// clocks, the span log of the traced run, the per-kernel-family ledger
// read from Device::profiles(), a bit-exact digest for the determinism
// self-check, and the metric list printed as the result line.

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "simt/counters.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// splitmix64: the benchmark's own generator, so its inputs depend only on
/// --seed and never on the library's data generators.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() noexcept {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1) with 53 random bits.
    double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) noexcept {
        return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
    }
    /// Exponential inter-arrival gap with the given mean.
    double exponential(double mean) noexcept;

private:
    std::uint64_t s_;
};

/// Derives an independent stream seed from the run seed and a purpose tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) noexcept;

/// FNV-1a digest over raw bytes: the determinism self-check compares
/// modeled results bit for bit, so doubles are hashed by representation.
class Digest {
public:
    template <typename T>
    void add(const T& v) noexcept {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (const unsigned char c : b) h_ = (h_ ^ c) * 0x100000001B3ull;
    }
    void add_floats(const std::vector<float>& v) noexcept;
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (pct in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The highest of the standard percentiles with at least ten samples
/// beyond it, and its value.
struct Tail {
    double pct = 0.0;
    double value = 0.0;
};
Tail tail_of(const std::vector<double>& v);

/// Fast decile (p10) of per-op host times: the estimator the host metrics
/// use, because slow ops on a shared machine carry the noise.
double fast_decile(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Host clocks
// ---------------------------------------------------------------------------

/// Monotonic host time in seconds.
double host_now_s();
/// getrusage high-water mark of this process [MB].
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Tracing (traced run only)
// ---------------------------------------------------------------------------

/// In-memory spans around the benchmark's calls into each layer's public
/// functions.  Written out as a chrome trace when the run ends.
class SpanLog {
public:
    struct Span {
        std::string name;
        double t0_s = 0.0;
        double t1_s = 0.0;
        int parent = -1;
    };
    /// RAII span; a disabled log records nothing and costs one branch.
    class Scope {
    public:
        Scope(SpanLog* log, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog* log_;
        int id_ = -1;
    };

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    /// Chrome-trace JSON of every span (one track, nested by time).
    [[nodiscard]] std::string chrome_trace() const;

private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/// Kernel families the per-layer report splits modeled time into.
enum Family : int {
    fam_sample,
    fam_count,
    fam_reduce_offsets,
    fam_filter,
    fam_bitonic,
    fam_radix,
    fam_scan_memset_copy,
    fam_link,
    fam_other,
    fam_count_of
};
const char* family_name(int f) noexcept;
int family_of(const std::string& kernel) noexcept;

/// Sums of Device::profiles() by kernel family.
struct KernelLedger {
    std::array<double, fam_count_of> sim_ns{};
    std::array<std::uint64_t, fam_count_of> launches{};
    std::uint64_t global_bytes = 0;
    std::uint64_t atomic_ops = 0;
    std::uint64_t atomic_collisions = 0;

    void add(const std::vector<gpusel::simt::KernelProfile>& profiles);
    [[nodiscard]] double total_sim_ns() const noexcept;
};

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Formats a double with all its digits (round-trip precision).  A
/// non-finite value prints as 0; main() marks such a run incorrect.
std::string num(double v);
std::string json_escape(const std::string& s);

}  // namespace perfbench
