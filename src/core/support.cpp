#include "core/support.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/simd.hpp"

namespace dcs {

std::vector<Vertex> common_neighbors(const Graph& h, Vertex u, Vertex v) {
  auto nu = h.neighbors(u);
  auto nv = h.neighbors(v);
  std::vector<Vertex> out;
  std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                        std::back_inserter(out));
  return out;
}

std::size_t base_support(const Graph& g, Vertex u, Vertex z) {
  auto nu = g.neighbors(u);
  auto nz = g.neighbors(z);
  // Counted merge over the sorted adjacency lists.
  std::size_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < nu.size() && j < nz.size()) {
    if (nu[i] < nz[j]) {
      ++i;
    } else if (nu[i] > nz[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

std::size_t count_supported_extensions(const Graph& g, Vertex u, Vertex v,
                                       std::size_t a) {
  std::size_t count = 0;
  for (Vertex z : g.neighbors(v)) {
    if (z == u) continue;
    // The extension (v,z) is a-supported iff base {u,z} is (a+1)-supported.
    if (base_support(g, u, z) >= a + 1) ++count;
  }
  return count;
}

bool is_ab_supported_toward(const Graph& g, Vertex u, Vertex v,
                            std::size_t a, std::size_t b) {
  // Early-exit variant of count_supported_extensions.
  std::size_t count = 0;
  for (Vertex z : g.neighbors(v)) {
    if (z == u) continue;
    if (base_support(g, u, z) >= a + 1) {
      if (++count >= b) return true;
    }
  }
  return false;
}

bool is_ab_supported(const Graph& g, Edge e, std::size_t a, std::size_t b) {
  return is_ab_supported_toward(g, e.u, e.v, a, b) ||
         is_ab_supported_toward(g, e.v, e.u, a, b);
}

std::vector<Detour3> find_3detours(const Graph& h, Vertex u, Vertex v,
                                   std::size_t limit) {
  std::vector<Detour3> out;
  // Enumerate z ∈ N(v), then routers x ∈ N(u) ∩ N(z); interior nodes must
  // avoid the endpoints. x == z is impossible (no self-loops).
  for (Vertex z : h.neighbors(v)) {
    if (z == u || z == v) continue;
    for (Vertex x : common_neighbors(h, u, z)) {
      if (x == v || x == u) continue;
      out.push_back(Detour3{x, z});
      if (limit != 0 && out.size() >= limit) return out;
    }
  }
  return out;
}

bool has_short_replacement(const Graph& h, Vertex u, Vertex v) {
  if (h.has_edge(u, v)) return true;
  if (!common_neighbors(h, u, v).empty()) return true;
  return !find_3detours(h, u, v, /*limit=*/1).empty();
}

namespace {

/// N(u) as bits in a per-thread bitset, for one call at a time per thread.
/// Every bit set on construction is cleared on destruction, so the bitset
/// is all zero between calls and grows only to the largest n seen.
class NeighbourMarks {
 public:
  NeighbourMarks(const Graph& h, Vertex u) : marked_(h.neighbors(u)) {
    const std::size_t words = (h.num_vertices() + 63) / 64;
    if (bits_.size() < words) bits_.resize(words, 0);
    for (Vertex x : marked_) bits_[x >> 6] |= 1ull << (x & 63);
  }
  ~NeighbourMarks() {
    for (Vertex x : marked_) bits_[x >> 6] = 0;
  }
  NeighbourMarks(const NeighbourMarks&) = delete;
  NeighbourMarks& operator=(const NeighbourMarks&) = delete;

  bool test(Vertex x) const { return (bits_[x >> 6] >> (x & 63)) & 1; }

 private:
  std::span<const Vertex> marked_;
  static thread_local std::vector<std::uint64_t> bits_;
};

thread_local std::vector<std::uint64_t> NeighbourMarks::bits_;

}  // namespace

std::vector<Vertex> random_short_replacement(const Graph& h, Vertex u,
                                             Vertex v, Rng& rng,
                                             bool prefer_3detour) {
  DCS_REQUIRE(u != v, "replacement endpoints must differ");
  if (!prefer_3detour && h.has_edge(u, v)) return {u, v};
  const NeighbourMarks in_nu(h, u);
  // find_3detours' order: z ∈ N(v) ascending, then the routers
  // x ∈ N(u) ∩ N(z) ascending, so the draw picks the same path.
  std::vector<Detour3> detours;
  for (Vertex z : h.neighbors(v)) {
    if (z == u) continue;
    for (Vertex x : h.neighbors(z)) {
      if (x != v && in_nu.test(x)) detours.push_back(Detour3{x, z});
    }
  }
  if (!detours.empty()) {
    const auto& d = rng.pick(detours);
    return {u, d.x, d.z, v};
  }
  std::vector<Vertex> routers;
  for (Vertex x : h.neighbors(v)) {
    if (in_nu.test(x)) routers.push_back(x);
  }
  if (!routers.empty()) {
    return {u, rng.pick(routers), v};
  }
  if (h.has_edge(u, v)) return {u, v};
  return {};
}

std::size_t SupportOracle::base_support(Vertex u, Vertex z) const {
  if (bitmap_.empty()) return dcs::base_support(g_, u, z);
  return bitmap_.common_count(u, z);
}

std::size_t SupportOracle::count_supported_extensions(Vertex u, Vertex v,
                                                      std::size_t a) const {
  if (bitmap_.empty()) return dcs::count_supported_extensions(g_, u, v, a);
  std::size_t count = 0;
  for (Vertex z : g_.neighbors(v)) {
    if (z == u) continue;
    if (bitmap_.common_count(u, z) >= a + 1) ++count;
  }
  return count;
}

bool SupportOracle::is_ab_supported_toward(Vertex u, Vertex v, std::size_t a,
                                           std::size_t b) const {
  if (bitmap_.empty()) return dcs::is_ab_supported_toward(g_, u, v, a, b);
  std::size_t count = 0;
  for (Vertex z : g_.neighbors(v)) {
    if (z == u) continue;
    if (bitmap_.common_count(u, z) >= a + 1) {
      if (++count >= b) return true;
    }
  }
  return false;
}

bool SupportOracle::is_ab_supported(Edge e, std::size_t a,
                                    std::size_t b) const {
  return is_ab_supported_toward(e.u, e.v, a, b) ||
         is_ab_supported_toward(e.v, e.u, a, b);
}

std::vector<Vertex> SupportOracle::common_neighbors(Vertex u,
                                                    Vertex v) const {
  if (bitmap_.empty()) return dcs::common_neighbors(g_, u, v);
  std::vector<Vertex> out;
  bitmap_.common_into(u, v, out);
  return out;
}

ShortDistanceOracle::ShortDistanceOracle(const Graph& g, std::size_t queries)
    : g_(g) {
  if (!balls_pay(g.num_vertices(), g.num_edges(), queries)) return;
  adjacency_ = AdjacencyBitmap(g);
  ball_ = adjacency_.two_ball(g);
}

bool ShortDistanceOracle::balls_pay(std::size_t n, std::size_t m,
                                    std::size_t queries) {
  if (n == 0) return false;
  const std::size_t words = (n + 63) / 64;
  if (2 * n * words * 8 > AdjacencyBitmap::kMaxBytes) return false;
  // The fill ORs d̄ + 1 rows of `words` words into each of the n ball rows.
  // A scalar query merges sorted lists: about 2d̄ entries to find a common
  // neighbour, up to d̄² to rule out a 3-detour. Measured at n = 1024–8192,
  // one costs about as much as 8·d̄ of the fill's word ORs, and a ball
  // query next to nothing.
  const double degree =
      2.0 * static_cast<double>(m) / static_cast<double>(n);
  return static_cast<double>(n + 2 * m) * static_cast<double>(words) <=
         8.0 * static_cast<double>(queries) * degree;
}

Dist ShortDistanceOracle::distance(Vertex u, Vertex v) const {
  if (ball_.empty()) {
    if (g_.has_edge(u, v)) return 1;
    if (base_support(g_, u, v) > 0) return 2;
    return find_3detours(g_, u, v, /*limit=*/1).empty() ? kUnreachable : 3;
  }
  if (adjacency_.test(u, v)) return 1;
  if (ball_.test(u, v)) return 2;
  return simd::rows_meet(ball_.row(u).data(), adjacency_.row(v).data(),
                         adjacency_.words_per_row())
             ? 3
             : kUnreachable;
}

}  // namespace dcs
