#include "graph/adjacency_bitmap.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dcs {

namespace {

obs::Counter& builds_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("bitmap.builds");
  return c;
}

/// In-place transpose of a 64 × 64 bit matrix: afterwards bit i of m[j] is
/// what bit j of m[i] was. Swaps ever smaller off-diagonal blocks (32, 16,
/// …, 1 wide), six rounds of 32 masked exchanges.
void transpose64(std::uint64_t m[64]) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
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
  // kernel — runtime-dispatched (AVX2 when available). common_into stays
  // scalar: it materializes.
  return simd::and_popcount(a, b, words_);
}

AdjacencyBitmap AdjacencyBitmap::supported_bases(std::size_t k) const {
  AdjacencyBitmap bases;
  bases.n_ = n_;
  bases.words_ = words_;
  bases.bits_.assign(bits_.size(), 0);
  // S is symmetric, so each unordered base is tested once. The first pass
  // fills each row from its diagonal 64-bit block rightwards, the diagonal
  // block in full; the second fills the words left of each row's diagonal
  // block by transposing 64 × 64 blocks of the first pass's words. It
  // writes only words left of a row's diagonal block and reads only words
  // right of one, so the workers of neither pass touch a word another
  // writes. The first pass is one kernel dispatch per row, which keeps the
  // head of row u in registers for the whole run.
  auto fill_from_diagonal = [&](std::size_t u) {
    simd::and_popcount_at_least_run(bits_.data() + u * words_, bits_.data(),
                                    words_, u, u & ~std::size_t{63}, n_, k,
                                    bases.bits_.data() + u * words_);
  };
  // Row u costs about n − u tests: pairing u with n − 1 − u gives every
  // index of the static partition the same work.
  parallel_chunks(0, (n_ + 1) / 2,
                  [&](std::size_t lo, std::size_t hi, std::size_t) {
                    for (std::size_t u = lo; u < hi; ++u) {
                      fill_from_diagonal(u);
                      if (n_ - 1 - u != u) fill_from_diagonal(n_ - 1 - u);
                    }
                  });
  parallel_chunks(0, words_, [&](std::size_t lo, std::size_t hi,
                                 std::size_t) {
    std::uint64_t block[64];
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t rows = std::min<std::size_t>(64, n_ - 64 * b);
      for (std::size_t w = 0; w < b; ++w) {
        for (std::size_t i = 0; i < 64; ++i) {
          block[i] = bases.bits_[(64 * w + i) * words_ + b];
        }
        transpose64(block);
        for (std::size_t j = 0; j < rows; ++j) {
          bases.bits_[(64 * b + j) * words_ + w] = block[j];
        }
      }
    }
  });
  return bases;
}

AdjacencyBitmap AdjacencyBitmap::two_ball(const Graph& g) const {
  DCS_REQUIRE(g.num_vertices() == n_,
              "two_ball needs the graph this bitmap was built from");
  AdjacencyBitmap ball;
  ball.n_ = n_;
  ball.words_ = words_;
  ball.bits_.resize(bits_.size());
  // Each worker writes only the rows of its own range.
  parallel_chunks(0, n_, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t u = lo; u < hi; ++u) {
      std::uint64_t* out = ball.bits_.data() + u * words_;
      const std::uint64_t* own = bits_.data() + u * words_;
      std::copy(own, own + words_, out);
      out[u >> 6] |= 1ull << (u & 63);
      for (Vertex w : g.neighbors(static_cast<Vertex>(u))) {
        const std::uint64_t* in = bits_.data() + std::size_t{w} * words_;
        for (std::size_t i = 0; i < words_; ++i) out[i] |= in[i];
      }
    }
  });
  return ball;
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
