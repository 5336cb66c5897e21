#pragma once
// The four perfbench workloads (README.md "Workloads").  Each runs a fixed
// operation sequence derived from --seed, so every modeled-clock figure
// repeats bit for bit; fixed blocks of more checked ops follow, between
// the timed set-ups, without touching any reported figure.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Everything one pass over a workload's fixed sequence measured.
struct Pass {
    /// Per-op modeled time [ns]: device time per selection for closed
    /// loops, arrival-to-finish latency per request for serving.  A failed
    /// or shed op is +inf (it misses every latency limit).
    std::vector<double> model_ns;
    /// Elements completed and the modeled time they took [ns], for
    /// model_elems_per_s.
    double model_elems = 0.0;
    double model_span_ns = 0.0;
    /// Peak auxiliary device bytes over the pass (serving: the memory
    /// pool's backing capacity at full batches).
    double peak_aux_bytes = 0.0;
    /// Host seconds per element, one sample per op (closed loop) or
    /// dispatch round (serving).
    std::vector<double> host_s_per_elem;
    std::uint64_t attempted = 0;
    /// Ops that did not return a correct answer: refused, shed, errored
    /// or wrong.
    std::uint64_t failed = 0;
    /// The subset of failed ops that returned a wrong answer.
    std::uint64_t wrong = 0;
    /// Bit-exact digest of every modeled result and count of the pass.
    std::uint64_t digest = 0;
    /// Host wall time of the pass [s].
    double host_s = 0.0;
    /// Answer mismatches and other check failures (first few kept).
    std::vector<std::string> errors;
    /// Per-layer metrics; filled by traced passes only.
    std::vector<Metric> layers;

    /// Counts a refused or errored op.
    void fail(std::string why);
    /// Counts an op whose answer disagrees with the CPU reference.
    void wrong_answer(std::string why);
    /// Adds the checked-op counts and errors of `more` (ops run after the
    /// fixed sequence), leaving every measured figure alone.
    void absorb(Pass&& more);
};

class Workload {
public:
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
    virtual ~Workload() = default;
    [[nodiscard]] virtual const char* name() const noexcept = 0;
    /// Generates the inputs and CPU reference answers (untimed).
    virtual void make_inputs(std::uint64_t seed) = 0;
    /// Digest of the inputs `seed` generates (held-out-seed check).
    [[nodiscard]] virtual std::uint64_t input_digest(std::uint64_t seed) const = 0;
    /// Device / group construction plus warm-up ops: the set-up time.
    /// Replaces any earlier set-up.
    virtual void setup(bool record_profiles) = 0;
    /// Runs the fixed op sequence.  `spans` non-null makes it the traced
    /// pass: spans around each public call and per-layer metrics.
    [[nodiscard]] virtual Pass run(SpanLog* spans) = 0;
    /// Runs one block of further checked ops after the fixed sequence
    /// (about a quarter second of host time on the 4-vCPU VM of the
    /// README's figures); only attempted/failed counts change.  The block
    /// is a fixed op count, never a host-time budget, so the counts repeat
    /// per seed.
    virtual void extend(Pass& pass) = 0;
    /// slo_rate_rps on the modeled clock and the latency limit it used
    /// (closed loops: the modeled op completion rate, no limit).
    struct Slo {
        double rate_rps = 0.0;
        double limit_us = 0.0;
        /// Search probes as (offered rate, latency score in us); the score
        /// is 1e12 for a probe that shed.
        std::vector<std::pair<double, double>> probes;
    };
    [[nodiscard]] virtual Slo slo_rate(const Pass& pass) = 0;
    /// Wrong answers met outside the measured sequence (warm-up ops, SLO
    /// probes); any makes the run incorrect.
    [[nodiscard]] const std::vector<std::string>& side_errors() const noexcept {
        return side_errors_;
    }

protected:
    std::vector<std::string> side_errors_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
