#pragma once

// Cache-order vertex renumbering.
//
// The traversal core streams CSR adjacency; how much of that streaming
// hits cache depends on the vertex numbering, which for generated and
// ingested graphs is arbitrary. Renumbering relabels vertices so that
// vertices referenced together sit close in memory:
//
//   kDegreeDescending — hubs first. High-degree rows are touched by the
//       most neighbor scans, so packing them into the first pages keeps
//       the hottest distance/visited words resident (the classic
//       "frequency-based" ordering from the Beamer/GAP line of work).
//   kBfs — BFS visitation order, seeded per component at its
//       highest-degree vertex (a lightweight cousin of RCM). Neighbors
//       get nearby IDs, so frontier expansion walks nearly-sequential
//       index ranges instead of random ones.
//
// A Renumbering is a bijection between the caller's original ("external")
// IDs and the relabeled ("internal") IDs. Everything outside the
// traversal hot path — certificates, checkpoints, routes, query answers
// — stays in external IDs; the serving plane does not renumber.
// tests/test_renumber.cpp pins the isomorphism.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dcs {

enum class VertexOrder : std::uint8_t {
  kOriginal = 0,          ///< identity — keep the caller's numbering
  kDegreeDescending = 1,  ///< hubs first, ties by original ID
  kBfs = 2,               ///< BFS visitation order from per-component hubs
};

const char* vertex_order_name(VertexOrder order);

/// The permutation produced by Graph::renumber. `to_internal[ext] == int`
/// and `to_external[int] == ext`; both directions are full bijections on
/// [0, n).
struct Renumbering {
  std::vector<Vertex> to_internal;
  std::vector<Vertex> to_external;

  std::size_t size() const { return to_internal.size(); }

  Vertex internal(Vertex external_id) const { return to_internal[external_id]; }
  Vertex external(Vertex internal_id) const { return to_external[internal_id]; }

  /// Relabel a graph in external IDs into internal IDs.
  Graph apply_to(const Graph& g) const;

  /// True iff both arrays are mutually inverse bijections on [0, n).
  bool is_valid() const;

  static Renumbering identity(std::size_t n);
};

struct RenumberedGraph {
  Graph graph;     ///< relabeled into internal IDs
  Renumbering map;
};

/// Compute just the permutation for `order` without building the graph.
Renumbering compute_renumbering(const Graph& g, VertexOrder order);

}  // namespace dcs
