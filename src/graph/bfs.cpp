#include "graph/bfs.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dcs {

std::vector<Dist> bfs_distances(const Graph& g, Vertex source) {
  return bfs_distances_bounded(g, source, kUnreachable);
}

std::vector<Dist> bfs_distances_bounded(const Graph& g, Vertex source,
                                        Dist max_depth) {
  DCS_REQUIRE(source < g.num_vertices(), "BFS source out of range");
  std::vector<Dist> dist(g.num_vertices(), kUnreachable);
  std::vector<Vertex> frontier{source};
  std::vector<Vertex> next;
  dist[source] = 0;
  Dist level = 0;
  while (!frontier.empty() && level < max_depth) {
    next.clear();
    for (Vertex u : frontier) {
      for (Vertex v : g.neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = level + 1;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    ++level;
  }
  return dist;
}

Dist bfs_distance(const Graph& g, Vertex source, Vertex target) {
  DCS_REQUIRE(source < g.num_vertices() && target < g.num_vertices(),
              "BFS endpoint out of range");
  if (source == target) return 0;
  std::vector<Dist> dist(g.num_vertices(), kUnreachable);
  std::vector<Vertex> frontier{source};
  std::vector<Vertex> next;
  dist[source] = 0;
  Dist level = 0;
  while (!frontier.empty()) {
    next.clear();
    for (Vertex u : frontier) {
      for (Vertex v : g.neighbors(u)) {
        if (dist[v] == kUnreachable) {
          if (v == target) return level + 1;
          dist[v] = level + 1;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    ++level;
  }
  return kUnreachable;
}

std::vector<Vertex> bfs_shortest_path(const Graph& g, Vertex source,
                                      Vertex target, Rng* rng) {
  DCS_REQUIRE(source < g.num_vertices() && target < g.num_vertices(),
              "BFS endpoint out of range");
  if (source == target) return {source};
  // BFS from target so that walking parents from source yields the path in
  // forward order directly.
  const std::vector<Dist> dist = bfs_distances(g, target);
  if (dist[source] == kUnreachable) return {};

  std::vector<Vertex> path;
  path.reserve(dist[source] + 1);
  Vertex cur = source;
  path.push_back(cur);
  while (cur != target) {
    const Dist want = dist[cur] - 1;
    // Collect the equal-distance successors; pick randomly if requested.
    Vertex chosen = kInvalidVertex;
    if (rng == nullptr) {
      for (Vertex v : g.neighbors(cur)) {
        if (dist[v] == want) {
          chosen = v;
          break;
        }
      }
    } else {
      std::size_t count = 0;
      for (Vertex v : g.neighbors(cur)) {
        if (dist[v] == want) {
          ++count;
          // Reservoir sampling over the candidates avoids materializing them.
          if (rng->uniform(count) == 0) chosen = v;
        }
      }
    }
    DCS_CHECK(chosen != kInvalidVertex, "BFS parent chain broken");
    path.push_back(chosen);
    cur = chosen;
  }
  return path;
}

Dist eccentricity(const Graph& g, Vertex source) {
  const auto dist = bfs_distances(g, source);
  Dist ecc = 0;
  for (Dist d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

}  // namespace dcs
