#pragma once

// Breadth-first search primitives: single-source distances, depth-bounded
// search and shortest-path extraction (with optional randomized tie-breaking
// so that repeated path queries spread congestion). These are the scalar
// references; graph/traversal.hpp batches many sources into one sweep.

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dcs {

using Dist = std::uint32_t;
inline constexpr Dist kUnreachable = std::numeric_limits<Dist>::max();

/// Distances from `source` to every vertex (kUnreachable if disconnected).
std::vector<Dist> bfs_distances(const Graph& g, Vertex source);

/// Distances from `source`, exploring only up to depth `max_depth`.
/// Vertices beyond the horizon are kUnreachable.
std::vector<Dist> bfs_distances_bounded(const Graph& g, Vertex source,
                                        Dist max_depth);

/// Distance between a single pair; bidirectional BFS would be possible but a
/// plain forward BFS with early exit is sufficient at our scales.
Dist bfs_distance(const Graph& g, Vertex source, Vertex target);

/// One shortest path from source to target (empty if unreachable). The path
/// includes both endpoints. If `rng` is non-null, parent choices among
/// equal-distance predecessors are randomized, so that repeated calls sample
/// different shortest paths (used to spread routing congestion).
std::vector<Vertex> bfs_shortest_path(const Graph& g, Vertex source,
                                      Vertex target, Rng* rng = nullptr);

/// Eccentricity of `source` (max finite distance); kUnreachable if the graph
/// is disconnected from source.
Dist eccentricity(const Graph& g, Vertex source);

}  // namespace dcs
