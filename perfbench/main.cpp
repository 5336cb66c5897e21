// gpusel_perfbench: one workload, one run (README.md).
//
//   gpusel_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by one "context" line (host, build, percentiles used, the
// end-to-end metric each layer metric should move, check outcomes).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "simt/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr double kMiB = 1024.0 * 1024.0;
/// Seed offset of the held-out input check: a different seed must give
/// different inputs.
constexpr std::uint64_t kHeldOutSeedTag = 0x5EEDull;
/// Fewest set-ups per untraced run; setup_s is their median.
constexpr long kMinSetupReps = 15;
/// Set-ups per second of --seconds, at least kMinSetupReps.  The count
/// depends only on --seconds, never on host speed, so attempted and failed
/// repeat for a seed.
constexpr double kSetupsPerSecond = 2.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "gpusel_perfbench: " << why
              << "\nusage: gpusel_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\nworkloads:";
    for (const std::string& w : workload_names()) std::cerr << ' ' << w;
    std::cerr << '\n';
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) usage("missing value for " + k);
        const std::string v = argv[++i];
        try {
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                a.trace = std::stoi(v) != 0;
            } else if (k == "--trace-out") {
                a.trace_out = v;
            } else {
                usage("unknown option " + k);
            }
        } catch (const std::exception&) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    return a;
}

/// The end-to-end metric (and workload) each per-layer metric is expected
/// to move; printed with the traced run's metrics.
std::string moves_of(const std::string& layer) {
    auto starts = [&](const char* p) { return layer.rfind(p, 0) == 0; };
    if (layer == "server.admit_host_us" || layer == "server.round_host_ms") {
        return "host_elems_per_s@serve_small";
    }
    if (layer == "server.queue_delay_p99_us") return "model_tail_us,slo_rate_rps@serve_small";
    if (layer == "server.service_p50_us") return "model_p50_us@serve_small";
    if (starts("server.")) return "failed/attempted@serve_small";
    if (starts("batch.")) return "slo_rate_rps@serve_small";
    if (starts("planner.")) return "model_p50_us@select_dups vs select_large";
    if (starts("pipeline.")) return "model_p50_us@select_large";
    if (starts("kernel.reduce_offsets.") || starts("kernel.bitonic.")) {
        return "model_p50_us@serve_small";
    }
    if (starts("kernel.count.") || starts("kernel.filter.") || starts("kernel.sample.")) {
        return "model_p50_us,model_elems_per_s@select_large";
    }
    if (starts("kernel.radix.")) return "model_p50_us@select_dups";
    if (starts("kernel.link.")) return "model_p50_us@shard_oversize";
    if (layer == "kernel.bytes_per_elem" || layer == "kernel.atomic_collision_frac") {
        return "model_elems_per_s@select_large";
    }
    if (starts("kernel.")) return "model_p50_us@all";
    if (starts("pool.")) return "device_peak_aux_mb,host_elems_per_s@all";
    if (layer == "simt.host_ns_per_launch") return "host_elems_per_s@shard_oversize";
    if (layer == "simt.host_ns_per_elem") return "host_elems_per_s@select_large";
    if (starts("shard.")) return "model_p50_us,device_peak_aux_mb@shard_oversize";
    if (layer == "host.elems_per_s") return "end-to-end host throughput (too noisy for a bound)";
    if (layer == "trace.overhead_x") return "none: cost of tracing (traced/untraced host time)";
    return "";
}

/// Modeled-clock end-to-end figures of a pass (bit-identical across runs
/// of one seed, traced or not).
struct Modeled {
    double p50_us = 0.0;
    Tail tail;
    double elems_per_s = 0.0;
    double peak_aux_mb = 0.0;

    static Modeled of(const Pass& p) {
        Modeled m;
        m.p50_us = median(p.model_ns) / 1e3;
        m.tail = tail_of(p.model_ns);
        m.tail.value /= 1e3;
        m.elems_per_s = p.model_span_ns > 0.0 ? p.model_elems / (p.model_span_ns / 1e9) : 0.0;
        m.peak_aux_mb = p.peak_aux_bytes / kMiB;
        return m;
    }
    bool operator==(const Modeled& o) const {
        return p50_us == o.p50_us && tail.pct == o.tail.pct && tail.value == o.tail.value &&
               elems_per_s == o.elems_per_s && peak_aux_mb == o.peak_aux_mb;
    }
};

std::string metrics_json(const std::vector<Metric>& ms) {
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < ms.size(); ++i) {
        os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": " << num(ms[i].value)
           << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << '}';
    return os.str();
}

std::string strings_json(const std::vector<std::string>& v) {
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        os << (i ? ", " : "") << '"' << json_escape(v[i]) << '"';
    }
    os << ']';
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    std::unique_ptr<Workload> w = make_workload(args.workload);
    if (!w) usage("unknown workload " + args.workload);

    // Check failures that make the run incorrect, and op failures.
    std::vector<std::string> errors;
    bool checks_ok = true;
    auto check = [&](bool ok, const char* why) {
        if (!ok) {
            checks_ok = false;
            errors.emplace_back(why);
        }
    };
    w->make_inputs(args.seed);
    check(w->input_digest(args.seed) != w->input_digest(args.seed ^ kHeldOutSeedTag),
          "held-out seed generated the same inputs");

    std::vector<Metric> metrics;
    std::ostringstream ctx;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t wrong = 0;
    auto take = [&](const Pass& p) {
        attempted += p.attempted;
        failed += p.failed;
        wrong += p.wrong;
        errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    };

    if (!args.trace) {
        std::vector<double> setup_s;
        auto timed_setup = [&] {
            const double t0 = host_now_s();
            w->setup(/*record_profiles=*/false);
            setup_s.push_back(host_now_s() - t0);
        };
        const double t_measure = host_now_s();
        const auto reps = static_cast<std::size_t>(
            std::max(kMinSetupReps, std::lround(args.seconds * kSetupsPerSecond)));
        timed_setup();
        Pass pass = w->run(nullptr);
        const Modeled m = Modeled::of(pass);
        const Workload::Slo slo = w->slo_rate(pass);
        // The remaining set-ups, each followed by a fixed block of checked
        // ops on the fresh device.  The median of set-ups spread over
        // seconds is steady where that of a burst at start-up is not: a
        // slow moment of the host shifts every rep of a burst.
        while (setup_s.size() < reps) {
            timed_setup();
            w->extend(pass);
        }
        const double measured_s = host_now_s() - t_measure;
        take(pass);
        metrics = {
            {"model_p50_us", m.p50_us, "us"},
            {"model_tail_us", m.tail.value, "us"},
            {"model_elems_per_s", m.elems_per_s, "elem/s"},
            {"slo_rate_rps", slo.rate_rps, "1/s"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"device_peak_aux_mb", m.peak_aux_mb, "MB"},
        };
        ctx << "\"model_ops\": " << pass.model_ns.size()
            << ", \"model_tail_pct\": " << num(m.tail.pct)
            << ", \"slo_limit_us\": " << num(slo.limit_us) << ", \"slo_probes\": [";
        for (std::size_t i = 0; i < slo.probes.size(); ++i) {
            ctx << (i ? ", " : "") << '[' << num(slo.probes[i].first) << ", "
                << num(slo.probes[i].second) << ']';
        }
        ctx << ']'
            << ", \"measured_s\": " << num(measured_s)
            << ", \"sequence_host_s\": " << num(pass.host_s)
            << ", \"setup_reps_s\": [";
        for (std::size_t i = 0; i < setup_s.size(); ++i) ctx << (i ? ", " : "") << num(setup_s[i]);
        ctx << ']';
    } else {
        // Untraced and traced passes over the same seed on fresh set-ups:
        // the modeled results must agree bit for bit (determinism and
        // zero-cost tracing); host time is the tracing overhead.
        w->setup(/*record_profiles=*/false);
        const Pass plain = w->run(nullptr);
        w->setup(/*record_profiles=*/true);
        SpanLog spans;
        Pass traced = w->run(&spans);
        take(plain);
        take(traced);
        const bool same = plain.digest == traced.digest &&
                          Modeled::of(plain) == Modeled::of(traced) &&
                          plain.failed == traced.failed;
        check(same, "traced pass modeled results differ from untraced pass");
        metrics = traced.layers;
        // Host throughput comes from the untraced pass: spans and profile
        // recording must not slow the figure down.
        metrics.push_back({"host.elems_per_s", 1.0 / fast_decile(plain.host_s_per_elem), "elem/s"});
        metrics.push_back({"trace.overhead_x", traced.host_s / plain.host_s, "x"});
        ctx << "\"deterministic\": " << (same ? "true" : "false")
            << ", \"untraced_host_s\": " << num(plain.host_s)
            << ", \"traced_host_s\": " << num(traced.host_s)
            << ", \"host_samples\": " << plain.host_s_per_elem.size() << ", \"spans\": "
            << spans.spans().size() << ", \"moves\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            ctx << (i ? ", " : "") << '"' << metrics[i].name << "\": \""
                << json_escape(moves_of(metrics[i].name)) << '"';
        }
        ctx << '}';
        if (!args.trace_out.empty()) {
            std::ofstream(args.trace_out) << spans.chrome_trace();
        }
    }
    errors.insert(errors.end(), w->side_errors().begin(), w->side_errors().end());
    check(w->side_errors().empty(), "wrong answers outside the measured sequence");
    check(wrong == 0, "wrong answers in the measured sequence");
    bool finite = true;
    for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
    check(finite, "a metric is not finite");

    std::cout << "{\"context\": {\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
              << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"nproc\": "
              << sysconf(_SC_NPROCESSORS_ONLN) << ", \"simd\": \""
              << gpusel::simt::simd::level_name(gpusel::simt::simd::active_level())
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"host_workers\": 0, \"wrong_answers\": " << wrong << ", " << ctx.str()
              << ", \"errors\": " << strings_json(errors) << "}}\n";
    std::cout << "{\"correct\": " << (checks_ok ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
    return 0;
}
