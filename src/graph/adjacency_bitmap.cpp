#include "graph/adjacency_bitmap.hpp"

#include <bit>

#include "obs/metrics.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dcs {

namespace {

obs::Counter& builds_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("bitmap.builds");
  return c;
}

}  // namespace

AdjacencyBitmap::AdjacencyBitmap(const Graph& g)
    : n_(g.num_vertices()), words_((g.num_vertices() + 63) / 64) {
  bits_.assign(n_ * words_, 0);
  for (Vertex u = 0; u < n_; ++u) {
    std::uint64_t* row = bits_.data() + u * words_;
    for (Vertex v : g.neighbors(u)) {
      row[v >> 6] |= 1ull << (v & 63);
    }
  }
  builds_counter().inc();
}

bool AdjacencyBitmap::worthwhile(std::size_t n, std::size_t m) {
  if (n < 64) return false;
  const std::size_t words = (n + 63) / 64;
  if (n * words * 8 > kMaxBytes) return false;
  // Merge cost ≈ 2·(2m/n) list entries per query vs n/64 words; require a
  // 2× margin so the bitmap only wins clearly: 2m/n ≥ n/128.
  return 256 * m >= n * n;
}

AdjacencyBitmap AdjacencyBitmap::build_if_worthwhile(const Graph& g) {
  if (!worthwhile(g.num_vertices(), g.num_edges())) return {};
  return AdjacencyBitmap(g);
}

std::size_t AdjacencyBitmap::common_count(Vertex u, Vertex v) const {
  const std::uint64_t* a = bits_.data() + u * words_;
  const std::uint64_t* b = bits_.data() + v * words_;
  // The whole row is always consumed, so this is the pure and-popcount
  // kernel — runtime-dispatched (AVX2 when available). has_common and
  // common_into stay scalar: the former stops at the first non-zero word,
  // the latter materializes.
  return simd::and_popcount(a, b, words_);
}

bool AdjacencyBitmap::common_at_least(Vertex u, Vertex v,
                                      std::size_t k) const {
  return simd::and_popcount_at_least(bits_.data() + u * words_,
                                     bits_.data() + v * words_, words_, k);
}

AdjacencyBitmap AdjacencyBitmap::supported_bases(std::size_t k) const {
  AdjacencyBitmap bases;
  bases.n_ = n_;
  bases.words_ = words_;
  bases.bits_.assign(bits_.size(), 0);
  // Each worker writes only the rows of its own range.
  parallel_chunks(0, n_, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t u = lo; u < hi; ++u) {
      std::uint64_t* row = bases.bits_.data() + u * words_;
      for (std::size_t z = 0; z < n_; ++z) {
        if (z != u && common_at_least(static_cast<Vertex>(u),
                                      static_cast<Vertex>(z), k)) {
          row[z >> 6] |= 1ull << (z & 63);
        }
      }
    }
  });
  return bases;
}

bool AdjacencyBitmap::has_common(Vertex u, Vertex v) const {
  const std::uint64_t* a = bits_.data() + u * words_;
  const std::uint64_t* b = bits_.data() + v * words_;
  for (std::size_t w = 0; w < words_; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

std::size_t AdjacencyBitmap::common_into(Vertex u, Vertex v,
                                         std::vector<Vertex>& out) const {
  const std::uint64_t* a = bits_.data() + u * words_;
  const std::uint64_t* b = bits_.data() + v * words_;
  out.clear();
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t both = a[w] & b[w];
    while (both != 0) {
      out.push_back(static_cast<Vertex>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(both))));
      both &= both - 1;
    }
  }
  return out.size();
}

}  // namespace dcs
