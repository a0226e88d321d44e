#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "graph/adjacency_bitmap.hpp"
#include "util/check.hpp"

namespace dcs {

Graph complete_graph(std::size_t n) {
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

Graph cycle_graph(std::size_t n) {
  DCS_REQUIRE(n >= 3, "cycle needs at least 3 vertices");
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    b.add_edge(u, static_cast<Vertex>((u + 1) % n));
  }
  return b.build();
}

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (Vertex u = 0; u + 1 < n; ++u) b.add_edge(u, u + 1);
  return b.build();
}

Graph hypercube(std::size_t dim) {
  DCS_REQUIRE(dim < 30, "hypercube dimension too large");
  const std::size_t n = std::size_t{1} << dim;
  GraphBuilder b(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t v = u ^ (std::size_t{1} << d);
      if (u < v) b.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
    }
  }
  return b.build();
}

Graph torus_2d(std::size_t rows, std::size_t cols) {
  DCS_REQUIRE(rows >= 1 && cols >= 1, "torus dimensions must be positive");
  const std::size_t n = rows * cols;
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<Vertex>(r * cols + c);
  };
  EdgeSet edges;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (cols > 1) {
        const Vertex right = id(r, (c + 1) % cols);
        if (right != id(r, c)) edges.insert(id(r, c), right);
      }
      if (rows > 1) {
        const Vertex down = id((r + 1) % rows, c);
        if (down != id(r, c)) edges.insert(id(r, c), down);
      }
    }
  }
  const auto list = edges.to_vector();
  return Graph::from_edges(n, list);
}

Graph erdos_renyi(std::size_t n, double p, std::uint64_t seed) {
  DCS_REQUIRE(p >= 0.0 && p <= 1.0, "edge probability must be in [0,1]");
  Rng rng(seed);
  std::vector<Edge> edges;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) edges.push_back(Edge{u, v});
    }
  }
  return Graph::from_edges(n, edges);
}

namespace {

/// Edge membership as an n × n bit matrix: edge (u,v) is bit v of row u
/// and bit u of row v, so each row's set bits are that vertex's sorted
/// neighbour list (Graph::from_bit_rows). One bit per vertex pair instead
/// of one hashed node per edge, for graphs dense enough that n²/8 bytes is
/// the smaller.
class EdgeMatrix {
 public:
  explicit EdgeMatrix(std::size_t n)
      : words_((n + 63) / 64), bits_(n * words_, 0) {}

  bool contains(Vertex u, Vertex v) const {
    return (bits_[u * words_ + (v >> 6)] >> (v & 63)) & 1;
  }
  void insert(Vertex u, Vertex v) {
    bits_[u * words_ + (v >> 6)] |= 1ull << (v & 63);
    bits_[v * words_ + (u >> 6)] |= 1ull << (u & 63);
  }
  void erase(Edge e) {
    bits_[e.u * words_ + (e.v >> 6)] &= ~(1ull << (e.v & 63));
    bits_[e.v * words_ + (e.u >> 6)] &= ~(1ull << (e.u & 63));
  }

  std::span<const std::uint64_t> rows() const { return bits_; }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// Adds to `edges` the union of `delta` random perfect matchings on n
/// vertices, repairing duplicate pairs by 2-swaps. The draws depend only on
/// the answers of `edges`, so every Set type gives the same graph.
template <class Set>
void add_random_matchings(std::size_t n, std::size_t delta, Rng& rng,
                          Set& edges) {
  std::vector<Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), Vertex{0});

  for (std::size_t round = 0; round < delta; ++round) {
    rng.shuffle(perm);
    // Pairs of this round's perfect matching that collide with an existing
    // edge; the rest are committed immediately.
    std::vector<std::pair<Vertex, Vertex>> committed;
    std::vector<std::pair<Vertex, Vertex>> bad;
    committed.reserve(n / 2);
    for (std::size_t i = 0; i < n; i += 2) {
      const Vertex a = perm[i];
      const Vertex b = perm[i + 1];
      if (!edges.contains(a, b)) {
        edges.insert(a, b);
        committed.emplace_back(a, b);
      } else {
        bad.emplace_back(a, b);
      }
    }
    // Repair duplicates by 2-swaps with committed pairs of the same
    // matching, preserving the perfect-matching (hence regularity) property.
    std::size_t attempts = 0;
    const std::size_t max_attempts = 200 * n + 10000;
    while (!bad.empty()) {
      DCS_REQUIRE(++attempts <= max_attempts,
                  "random_regular failed to repair duplicate edges; the "
                  "requested degree is too close to n");
      auto [a, b] = bad.back();
      DCS_CHECK(!committed.empty(),
                "no committed pairs available for repair swap");
      const std::size_t j = rng.uniform(committed.size());
      auto [c, d] = committed[j];
      // Try the cross pairings (a,c)(b,d) and (a,d)(b,c).
      auto ok = [&](Vertex x, Vertex y) {
        return x != y && !edges.contains(x, y);
      };
      std::pair<Vertex, Vertex> p1, p2;
      bool found = false;
      if (ok(a, c) && ok(b, d)) {
        p1 = {a, c};
        p2 = {b, d};
        found = true;
      } else if (ok(a, d) && ok(b, c)) {
        p1 = {a, d};
        p2 = {b, c};
        found = true;
      }
      if (!found) continue;  // pick a different partner next iteration
      bad.pop_back();
      edges.erase(canonical(c, d));
      edges.insert(p1.first, p1.second);
      edges.insert(p2.first, p2.second);
      committed[j] = p1;
      committed.push_back(p2);
    }
  }
}

}  // namespace

Graph random_regular(std::size_t n, std::size_t delta, std::uint64_t seed) {
  DCS_REQUIRE(n % 2 == 0, "random_regular requires an even vertex count");
  DCS_REQUIRE(delta >= 1 && delta < n,
              "degree must be in [1, n) for a simple regular graph");
  if (delta == n - 1) return complete_graph(n);
  if (delta > n / 2) {
    // Dense regime: the matching-union repair loop degenerates as the
    // remaining non-edges thin out. Build the sparse complement instead —
    // the complement of a (n-1-Δ)-regular graph is Δ-regular.
    const Graph co = random_regular(n, n - 1 - delta, seed);
    std::vector<Edge> edges;
    edges.reserve(n * delta / 2);
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        if (!co.has_edge(u, v)) edges.push_back(Edge{u, v});
      }
    }
    return Graph::from_edges(n, edges);
  }
  Rng rng(seed);
  Graph g;
  if (AdjacencyBitmap::worthwhile(n, n * delta / 2)) {
    EdgeMatrix edges(n);
    add_random_matchings(n, delta, rng, edges);
    g = Graph::from_bit_rows(n, edges.rows());
  } else {
    EdgeSet edges;
    add_random_matchings(n, delta, rng, edges);
    g = Graph::from_edges(n, edges.to_vector());
  }
  DCS_CHECK(g.is_regular() && g.min_degree() == delta,
            "random_regular produced a non-regular graph");
  return g;
}

Graph margulis_expander(std::size_t m) {
  DCS_REQUIRE(m >= 2, "margulis expander needs m >= 2");
  const std::size_t n = m * m;
  auto id = [m](std::size_t x, std::size_t y) {
    return static_cast<Vertex>(x * m + y);
  };
  EdgeSet edges;
  for (std::size_t x = 0; x < m; ++x) {
    for (std::size_t y = 0; y < m; ++y) {
      const Vertex u = id(x, y);
      const Vertex targets[4] = {
          id((x + 2 * y) % m, y),
          id((x + 2 * y + 1) % m, y),
          id(x, (y + 2 * x) % m),
          id(x, (y + 2 * x + 1) % m),
      };
      for (Vertex v : targets) {
        if (v != u) edges.insert(u, v);
      }
    }
  }
  const auto list = edges.to_vector();
  return Graph::from_edges(n, list);
}

Graph ring_of_cliques(std::size_t num_cliques, std::size_t clique_size) {
  DCS_REQUIRE(num_cliques >= 3, "ring needs at least 3 cliques");
  DCS_REQUIRE(clique_size >= 2, "cliques need at least 2 vertices");
  const std::size_t n = num_cliques * clique_size;
  auto id = [clique_size](std::size_t c, std::size_t j) {
    return static_cast<Vertex>(c * clique_size + j);
  };
  GraphBuilder b(n);
  for (std::size_t c = 0; c < num_cliques; ++c) {
    for (std::size_t i = 0; i < clique_size; ++i) {
      for (std::size_t j = i + 1; j < clique_size; ++j) {
        b.add_edge(id(c, i), id(c, j));
      }
      b.add_edge(id(c, i), id((c + 1) % num_cliques, i));
    }
  }
  Graph g = b.build();
  DCS_CHECK(g.is_regular() && g.min_degree() == clique_size + 1,
            "ring_of_cliques degree mismatch");
  return g;
}

Graph clique_matching_graph(std::size_t n) {
  DCS_REQUIRE(n >= 4 && n % 2 == 0,
              "clique_matching_graph needs an even n >= 4");
  const std::size_t half = n / 2;
  GraphBuilder b(n);
  for (Vertex u = 0; u < half; ++u) {
    for (Vertex v = u + 1; v < half; ++v) {
      b.add_edge(u, v);                                    // clique A
      b.add_edge(static_cast<Vertex>(half + u),
                 static_cast<Vertex>(half + v));           // clique B
    }
  }
  for (Vertex i = 0; i < half; ++i) {
    b.add_edge(i, static_cast<Vertex>(half + i));          // matching
  }
  return b.build();
}

Lemma2Graph lemma2_graph(std::size_t pairs, std::size_t alpha) {
  DCS_REQUIRE(pairs >= 2, "lemma2_graph needs at least 2 matched pairs");
  DCS_REQUIRE(alpha >= 2, "lemma2_graph needs alpha >= 2");
  Lemma2Graph out;
  out.alpha = alpha;
  const std::size_t detour_len = alpha - 1;  // interior nodes per detour
  const std::size_t n = 2 * pairs + pairs * detour_len;
  GraphBuilder b(n);

  out.a.resize(pairs);
  out.b.resize(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    out.a[i] = static_cast<Vertex>(i);
    out.b[i] = static_cast<Vertex>(pairs + i);
  }
  Vertex next = static_cast<Vertex>(2 * pairs);
  out.detours.resize(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    out.detours[i].resize(detour_len);
    for (std::size_t j = 0; j < detour_len; ++j) out.detours[i][j] = next++;
  }

  for (std::size_t i = 0; i < pairs; ++i) {
    for (std::size_t j = i + 1; j < pairs; ++j) {
      b.add_edge(out.a[i], out.a[j]);  // clique on A
      b.add_edge(out.b[i], out.b[j]);  // clique on B
    }
  }
  for (std::size_t i = 0; i < pairs; ++i) {
    b.add_edge(out.a[i], out.b[i]);  // perfect matching M
    // detour path a_i - d_{i,1} - ... - d_{i,alpha-1} - b_i (length alpha)
    Vertex prev = out.a[i];
    for (Vertex d : out.detours[i]) {
      b.add_edge(prev, d);
      prev = d;
    }
    b.add_edge(prev, out.b[i]);
  }
  out.g = b.build();
  return out;
}

FanGadget fan_gadget(std::size_t k) {
  DCS_REQUIRE(k >= 1, "fan gadget needs k >= 1");
  FanGadget out;
  out.k = k;
  const std::size_t line_len = 2 * k + 1;
  GraphBuilder b(line_len + 1);
  out.line.resize(line_len);
  for (std::size_t i = 0; i < line_len; ++i) {
    out.line[i] = static_cast<Vertex>(i);
  }
  out.hub = static_cast<Vertex>(line_len);
  for (std::size_t i = 0; i + 1 < line_len; ++i) {
    b.add_edge(out.line[i], out.line[i + 1]);
  }
  // rays to odd-indexed positions a_1, a_3, ..., a_{2k+1} (0-based: even idx)
  for (std::size_t i = 0; i < line_len; i += 2) {
    b.add_edge(out.hub, out.line[i]);
  }
  out.g = b.build();
  DCS_CHECK(out.g.num_edges() == 3 * k + 1, "fan gadget edge count mismatch");
  return out;
}

}  // namespace dcs
