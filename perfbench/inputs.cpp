#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  s_[0] = splitmix(seed);
  s_[1] = splitmix(seed);
}

std::uint64_t Rng::next() {  // xorshift128+
  std::uint64_t s1 = s_[0];
  const std::uint64_t s0 = s_[1];
  s_[0] = s0;
  s1 ^= s1 << 23;
  s_[1] = s1 ^ s0 ^ (s1 >> 17) ^ (s0 >> 26);
  return s_[1] + s0;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

std::vector<std::vector<double>> clustered_points(std::uint64_t v,
                                                  std::uint32_t dim,
                                                  std::uint32_t clusters,
                                                  double spread, Rng& rng) {
  std::vector<std::vector<double>> centres(clusters,
                                           std::vector<double>(dim));
  for (auto& c : centres) {
    for (double& x : c) x = spread * rng.uniform();
  }
  std::vector<std::vector<double>> points(v, std::vector<double>(dim));
  for (auto& p : points) {
    const auto& c = centres[rng.below(clusters)];
    for (std::uint32_t d = 0; d < dim; ++d) p[d] = c[d] + rng.normal();
  }
  return points;
}

double distance_quantile(const std::vector<std::vector<double>>& points,
                         double fraction, std::uint64_t samples, Rng& rng) {
  std::vector<double> d;
  d.reserve(samples);
  while (d.size() < samples) {
    const auto a = rng.below(points.size());
    const auto b = rng.below(points.size());
    if (a == b) continue;
    double sum = 0.0;
    for (std::size_t i = 0; i < points[a].size(); ++i) {
      const double diff = points[a][i] - points[b][i];
      sum += diff * diff;
    }
    d.push_back(std::sqrt(sum));
  }
  const auto k = static_cast<std::size_t>(fraction *
                                          static_cast<double>(d.size()));
  std::nth_element(d.begin(), d.begin() + k, d.end());
  return d[k];
}

std::vector<std::string> blobs(std::uint64_t v, std::uint64_t bytes,
                               Rng& rng) {
  std::vector<std::string> out(v);
  for (auto& s : out) {
    s.resize(bytes);
    for (char& c : s) c = static_cast<char>(rng.next() >> 56);
  }
  return out;
}

std::vector<std::vector<std::uint32_t>> zipf_documents(
    std::uint64_t v, std::uint32_t vocabulary, std::uint32_t tokens,
    std::uint32_t dup_every, Rng& rng) {
  std::vector<double> cdf(vocabulary);
  double total = 0.0;
  for (std::uint32_t r = 0; r < vocabulary; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  auto draw = [&] {
    const double u = rng.uniform() * total;
    return static_cast<std::uint32_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };

  std::vector<std::vector<std::uint32_t>> docs(v);
  for (std::uint64_t i = 0; i < v; ++i) {
    std::vector<std::uint32_t>& doc = docs[i];
    if (i % dup_every == dup_every - 1) {
      doc = docs[rng.below(i)];
      if (!doc.empty()) doc[rng.below(doc.size())] = draw();
    } else {
      for (std::uint32_t t = 0; t < tokens; ++t) {
        doc.push_back(std::min(draw(), vocabulary - 1));
      }
    }
    std::sort(doc.begin(), doc.end());
    doc.erase(std::unique(doc.begin(), doc.end()), doc.end());
  }
  return docs;
}

}  // namespace perfbench
