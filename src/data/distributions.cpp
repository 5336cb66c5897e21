#include "data/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/rng.hpp"

namespace gpusel::data {

std::string to_string(Distribution d) {
    switch (d) {
        case Distribution::uniform_distinct: return "uniform_distinct";
        case Distribution::uniform_real: return "uniform_real";
        case Distribution::normal: return "normal";
        case Distribution::exponential: return "exponential";
        case Distribution::sorted_ascending: return "sorted_ascending";
        case Distribution::sorted_descending: return "sorted_descending";
        case Distribution::organ_pipe: return "organ_pipe";
        case Distribution::adversarial_cluster: return "adversarial_cluster";
        case Distribution::adversarial_geometric: return "adversarial_geometric";
        case Distribution::zipf: return "zipf";
        case Distribution::lognormal: return "lognormal";
    }
    return "unknown";
}

const std::vector<Distribution>& all_distributions() {
    static const std::vector<Distribution> all{
        Distribution::uniform_distinct,  Distribution::uniform_real,
        Distribution::normal,            Distribution::exponential,
        Distribution::sorted_ascending,  Distribution::sorted_descending,
        Distribution::organ_pipe,        Distribution::adversarial_cluster,
        Distribution::adversarial_geometric, Distribution::zipf,
        Distribution::lognormal,
    };
    return all;
}

namespace {

/// Box-Muller standard normal from two uniforms.
double sample_normal(Xoshiro256& rng) {
    const double u1 = std::max(rng.uniform(), 1e-300);
    const double u2 = rng.uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

}  // namespace

template <typename T>
std::vector<T> generate(const DatasetSpec& spec) {
    if (spec.n == 0) return {};
    Xoshiro256 rng(spec.seed);
    std::vector<T> out(spec.n);
    switch (spec.dist) {
        case Distribution::uniform_distinct: {
            const std::size_t d =
                spec.distinct_values == 0 ? spec.n : std::min(spec.distinct_values, spec.n);
            if (d == spec.n) {
                // All distinct: a random permutation of evenly spaced reals,
                // jittered so values are not trivially arithmetic.
                for (std::size_t i = 0; i < spec.n; ++i) {
                    out[i] = static_cast<T>(static_cast<double>(i) +
                                            0.25 * (rng.uniform() - 0.5));
                }
                for (std::size_t i = spec.n - 1; i > 0; --i) {
                    std::swap(out[i], out[rng.bounded(i + 1)]);
                }
            } else {
                // d distinct random values; each element uniform over them.
                std::vector<T> values(d);
                for (auto& v : values) v = static_cast<T>(rng.uniform() * 1e6);
                std::sort(values.begin(), values.end());
                values.erase(std::unique(values.begin(), values.end()), values.end());
                for (auto& x : out) x = values[rng.bounded(values.size())];
            }
            break;
        }
        case Distribution::uniform_real:
            for (auto& x : out) x = static_cast<T>(rng.uniform());
            break;
        case Distribution::normal:
            for (auto& x : out) x = static_cast<T>(sample_normal(rng));
            break;
        case Distribution::exponential:
            for (auto& x : out) {
                x = static_cast<T>(-std::log(std::max(rng.uniform(), 1e-300)));
            }
            break;
        case Distribution::sorted_ascending:
            for (std::size_t i = 0; i < spec.n; ++i) out[i] = static_cast<T>(i);
            break;
        case Distribution::sorted_descending:
            for (std::size_t i = 0; i < spec.n; ++i) out[i] = static_cast<T>(spec.n - 1 - i);
            break;
        case Distribution::organ_pipe:
            for (std::size_t i = 0; i < spec.n; ++i) {
                out[i] = static_cast<T>(std::min(i, spec.n - 1 - i));
            }
            break;
        case Distribution::adversarial_cluster: {
            // 99% in [0.5, 0.5 + 1e-9), 1% outliers up to ~1e9.  A uniform
            // value split of [min, max] into b buckets leaves the whole
            // cluster -- and thus almost every rank -- in a single bucket.
            for (auto& x : out) {
                if (rng.uniform() < 0.99) {
                    x = static_cast<T>(0.5 + rng.uniform() * 1e-9);
                } else {
                    x = static_cast<T>(rng.uniform() * 1e9);
                }
            }
            break;
        }
        case Distribution::adversarial_geometric: {
            // Exponentially spaced magnitudes: x = 2^-k, k uniform in
            // [0, 60).  Every uniform value split isolates only the top few
            // magnitudes per level.
            for (auto& x : out) {
                const double k =
                    rng.uniform() * (std::is_same_v<T, float> ? 60.0 : 60.0);
                x = static_cast<T>(std::exp2(-k));
            }
            break;
        }
        case Distribution::zipf: {
            // Inverse-CDF sampling of a Zipf(alpha) rank r in [1, 65536];
            // the element value is the rank itself, so popular values
            // repeat millions of times at large n.
            const double alpha = 1.1;
            const double one_minus = 1.0 - alpha;
            const double max_rank = 65536.0;
            const double norm = (std::pow(max_rank, one_minus) - 1.0) / one_minus;
            for (auto& x : out) {
                const double u = rng.uniform() * norm;
                const double r = std::pow(u * one_minus + 1.0, 1.0 / one_minus);
                x = static_cast<T>(std::floor(std::min(r, max_rank)));
            }
            break;
        }
        case Distribution::lognormal:
            for (auto& x : out) x = static_cast<T>(std::exp(2.0 * sample_normal(rng)));
            break;
        default:
            throw std::invalid_argument("unknown distribution");
    }
    return out;
}

std::vector<float> generate_duplicate_mix(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    float heavy[7];
    for (float& h : heavy) h = static_cast<float>(rng.uniform());
    std::vector<float> v(n);
    for (float& x : v) {
        const double u = rng.uniform();
        x = u < 0.5   ? heavy[0]
            : u < 0.8 ? heavy[1 + rng.bounded(6)]
                      : static_cast<float>(rng.uniform());
    }
    return v;
}

std::size_t random_rank(std::size_t n, std::uint64_t seed) {
    if (n == 0) throw std::invalid_argument("random_rank: empty dataset");
    Xoshiro256 rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
    return rng.bounded(n);
}

template std::vector<float> generate<float>(const DatasetSpec&);
template std::vector<double> generate<double>(const DatasetSpec&);

}  // namespace gpusel::data
