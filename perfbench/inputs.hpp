// Seeded input generation. The benchmark owns its generators (rather
// than calling src/workloads/generators) so a change to the library
// cannot silently change the benchmark's inputs; the library receives
// only the encoded payloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64-seeded xorshift generator: fully specified, so the same seed
// gives the same inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  double uniform();                    // [0, 1)
  double normal();                     // standard normal (Box-Muller)
  std::uint64_t below(std::uint64_t n);  // [0, n)

 private:
  std::uint64_t s_[2];
};

// v points in `dim` dimensions around `clusters` centres drawn uniformly
// from [0, spread)^dim, with unit-variance Gaussian noise per coordinate.
std::vector<std::vector<double>> clustered_points(std::uint64_t v,
                                                  std::uint32_t dim,
                                                  std::uint32_t clusters,
                                                  double spread, Rng& rng);

// The `fraction` quantile of euclidean distances over `samples` seeded
// random pairs of `points`: a keep_below threshold that keeps about that
// share of all pairs.
double distance_quantile(const std::vector<std::vector<double>>& points,
                         double fraction, std::uint64_t samples, Rng& rng);

// v opaque payloads of `bytes` random bytes.
std::vector<std::string> blobs(std::uint64_t v, std::uint64_t bytes,
                               Rng& rng);

// v sorted, deduplicated token sets: `tokens` Zipf(1) draws over a
// `vocabulary`-word vocabulary each; every `dup_every`-th document is a
// near-duplicate of a random earlier one (one token replaced), so pairs
// above high Jaccard thresholds exist.
std::vector<std::vector<std::uint32_t>> zipf_documents(
    std::uint64_t v, std::uint32_t vocabulary, std::uint32_t tokens,
    std::uint32_t dup_every, Rng& rng);

}  // namespace perfbench
