#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace perfbench {

double Rng::exponential(double mean) noexcept {
    // 1 - u lies in (0, 1], so the log is finite.
    return -mean * std::log(1.0 - uniform());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) noexcept {
    Rng r(seed ^ (tag * 0xD1B54A32D192ED03ull));
    return r.next();
}

void Digest::add_floats(const std::vector<float>& v) noexcept {
    for (const float f : v) add(f);
}

double percentile(std::vector<double> v, double pct) {
    if (v.empty()) return 0.0;
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(v.begin(), nth, v.end());
    return *nth;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

Tail tail_of(const std::vector<double>& v) {
    const auto n = static_cast<double>(v.size());
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        // Samples beyond the nearest-rank position of pct.
        if (n - std::ceil(pct * n / 100.0) >= 10.0) return {pct, percentile(v, pct)};
    }
    return {50.0, percentile(v, 50.0)};
}

double fast_decile(const std::vector<double>& v) { return percentile(v, 10.0); }

double host_now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
    if (log_ == nullptr) return;
    id_ = static_cast<int>(log_->spans_.size());
    log_->spans_.push_back({name, host_now_s(), 0.0, log_->open_});
    log_->open_ = id_;
}

SpanLog::Scope::~Scope() {
    if (log_ == nullptr) return;
    Span& s = log_->spans_[static_cast<std::size_t>(id_)];
    s.t1_s = host_now_s();
    log_->open_ = s.parent;
}

std::string SpanLog::chrome_trace() const {
    std::ostringstream os;
    os << "{\"traceEvents\": [";
    const double t0 = spans_.empty() ? 0.0 : spans_.front().t0_s;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << json_escape(s.name)
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << num((s.t0_s - t0) * 1e6)
           << ", \"dur\": " << num((s.t1_s - s.t0_s) * 1e6) << ", \"args\": {\"id\": " << i
           << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

const char* family_name(int f) noexcept {
    static constexpr const char* kNames[fam_count_of] = {
        "sample", "count", "reduce_offsets", "filter", "bitonic",
        "radix",  "scan_memset_copy", "link", "other"};
    return f >= 0 && f < fam_count_of ? kNames[f] : "other";
}

int family_of(const std::string& k) noexcept {
    auto starts = [&](const char* p) { return k.rfind(p, 0) == 0; };
    if (k == "sample" || k == "pivot_sample") return fam_sample;
    if (k == "count" || k == "count_nowrite") return fam_count;
    if (k == "reduce_offsets" || k == "reduce" || k == "select_bucket") return fam_reduce_offsets;
    if (k == "filter" || k == "filter_topk" || k == "topk_gather" || k == "argselect_gather") {
        return fam_filter;
    }
    if (starts("bitonic") || k == "batched_select") return fam_bitonic;
    if (starts("radix_")) return fam_radix;
    if (starts("scan_") || k == "memset" || k == "copy" || k == "negate") {
        return fam_scan_memset_copy;
    }
    if (starts("link_")) return fam_link;
    return fam_other;
}

void KernelLedger::add(const std::vector<gpusel::simt::KernelProfile>& profiles) {
    for (const auto& p : profiles) {
        const auto f = static_cast<std::size_t>(family_of(p.name));
        sim_ns[f] += p.sim_ns;
        ++launches[f];
        global_bytes += p.counters.total_global_bytes();
        atomic_ops += p.counters.total_atomic_ops();
        atomic_collisions +=
            p.counters.shared_atomic_collisions + p.counters.global_atomic_collisions;
    }
}

double KernelLedger::total_sim_ns() const noexcept {
    return std::accumulate(sim_ns.begin(), sim_ns.end(), 0.0);
}

std::string num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

}  // namespace perfbench
