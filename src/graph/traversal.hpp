#pragma once

// Batched traversal engine.
//
// Every empirical claim in this library bottoms out in thousands of
// independent BFS runs (distance-stretch verification over all non-spanner
// edges, the support-reinsertion loop, the supervisor's periodic
// recertification under churn). The scalar BFS in graph/bfs.hpp pays a
// fresh O(n) allocation and fill per call and walks one source at a time;
// multi_source_bfs removes both costs:
//
//  * it advances up to 64 sources per pass using 64-bit visit/frontier
//    masks (MS-BFS in the style of Then et al.), so one sweep over the
//    adjacency serves a whole batch of sources;
//  * it draws from a per-thread epoch-stamped scratch arena, so repeated
//    calls do zero allocation and zero O(n) clearing — a bounded BFS that
//    touches k vertices costs O(k), not O(n).
//
// The frontier merge runs on the runtime-dispatched simd::ms_propagate
// (util/simd.hpp) — AVX2 when available, bit-identical scalar otherwise;
// scratch arrays live in ArenaBuffers (util/arena.hpp).
//
// The scalar implementations in graph/bfs.hpp remain the reference; the
// equivalence property tests in tests/test_traversal.cpp pin this engine
// to them bit-for-bit. Obs counters: traversal.arena_reuse_hits,
// traversal.ms_batches, traversal.ms_sources.

#include <cstdint>
#include <memory>
#include <span>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace dcs {

/// Sources advanced together per multi-source pass (one mask bit each).
inline constexpr std::size_t kMsBfsBatch = 64;

/// Reusable per-thread traversal buffers. A scratch may be used freely
/// from one thread at a time; traversal_scratch() hands out a thread-local
/// instance so pool workers reuse their arenas across calls.
class TraversalScratch {
 public:
  TraversalScratch();
  ~TraversalScratch();
  TraversalScratch(const TraversalScratch&) = delete;
  TraversalScratch& operator=(const TraversalScratch&) = delete;

  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// The calling thread's scratch arena (created on first use, reused for
/// the lifetime of the thread).
TraversalScratch& traversal_scratch();

/// Borrowed view of one multi-source batch. dist is vertex-major
/// (kMsBfsBatch entries per vertex); validity of entry (i, v) is carried
/// by bit i of the per-vertex seen mask. Valid until the next
/// multi_source_bfs call on the same scratch.
struct MsBfsView {
  std::size_t batch = 0;  ///< number of sources in this batch
  std::span<const Dist> dist;
  std::span<const std::uint64_t> seen;
  std::span<const std::uint32_t> seen_stamp;
  std::uint32_t epoch = 0;

  /// Distance from sources[source_index] to v (kUnreachable if not
  /// reached within the depth bound).
  Dist at(std::size_t source_index, Vertex v) const {
    const std::uint64_t mask = seen_stamp[v] == epoch ? seen[v] : 0;
    return (mask >> source_index) & 1
               ? dist[v * kMsBfsBatch + source_index]
               : kUnreachable;
  }
};

/// Multi-source BFS over up to kMsBfsBatch sources simultaneously, depth
/// bounded by `max_depth` (same horizon semantics as
/// bfs_distances_bounded). Duplicate sources are allowed and resolve to
/// identical rows. `scratch` defaults to the calling thread's arena.
MsBfsView multi_source_bfs(const Graph& g, std::span<const Vertex> sources,
                           Dist max_depth = kUnreachable,
                           TraversalScratch* scratch = nullptr);

}  // namespace dcs
