#include "graph/traversal.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "obs/metrics.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace dcs {

namespace {

// MS-BFS merge: neighbors gathered per simd::ms_propagate call, and the
// degree below which the call overhead beats the gather win.
constexpr std::size_t kMsPropagateChunk = 64;
constexpr std::size_t kMsPropagateMinDegree = 16;

obs::Counter& arena_reuse_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("traversal.arena_reuse_hits");
  return c;
}

obs::Counter& ms_batch_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("traversal.ms_batches");
  return c;
}

obs::Counter& ms_source_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("traversal.ms_sources");
  return c;
}

}  // namespace

struct TraversalScratch::Impl {
  // All O(n)+ arrays live in ArenaBuffers: growth first-touches the pages
  // on the owning thread (NUMA placement), and the epoch stamps make the
  // "contents unspecified after growth" contract safe.

  struct MsState {
    std::size_t n = 0;
    std::uint32_t epoch = 0;
    ArenaBuffer<Dist> dist;  // n * kMsBfsBatch, vertex-major
    ArenaBuffer<std::uint64_t> seen;
    ArenaBuffer<std::uint32_t> seen_stamp;
    // Invariant between calls and between levels: cur_mask[v] != 0 only
    // for v in `frontier`, nxt_mask[v] != 0 only for v in `next`.
    ArenaBuffer<std::uint64_t> cur_mask, nxt_mask;
    std::vector<Vertex> frontier, next;

    std::uint32_t begin(std::size_t want_n) {
      if (want_n != n) {
        n = want_n;
        dist.resize(n * kMsBfsBatch);
        seen.resize(n);
        seen_stamp.assign(n, 0);
        cur_mask.assign(n, 0);
        nxt_mask.assign(n, 0);
        epoch = 0;
      } else {
        arena_reuse_counter().inc();
      }
      if (++epoch == 0) {
        seen_stamp.fill(0u);
        epoch = 1;
      }
      return epoch;
    }
  } ms;
};

TraversalScratch::TraversalScratch() : impl_(std::make_unique<Impl>()) {}
TraversalScratch::~TraversalScratch() = default;

TraversalScratch& traversal_scratch() {
  thread_local TraversalScratch scratch;
  return scratch;
}

MsBfsView multi_source_bfs(const Graph& g, std::span<const Vertex> sources,
                           Dist max_depth, TraversalScratch* scratch) {
  const std::size_t n = g.num_vertices();
  DCS_REQUIRE(sources.size() <= kMsBfsBatch,
              "multi_source_bfs batch exceeds kMsBfsBatch sources");
  for (Vertex src : sources) {
    DCS_REQUIRE(src < n, "BFS source out of range");
  }
  auto& s = (scratch != nullptr ? *scratch : traversal_scratch()).impl().ms;
  const std::uint32_t epoch = s.begin(n);
  ms_batch_counter().inc();
  ms_source_counter().inc(sources.size());

  const auto seen_at = [&](Vertex v) -> std::uint64_t {
    return s.seen_stamp[v] == epoch ? s.seen[v] : 0;
  };
  const auto mark_seen = [&](Vertex v, std::uint64_t bits) {
    if (s.seen_stamp[v] == epoch) {
      s.seen[v] |= bits;
    } else {
      s.seen[v] = bits;
      s.seen_stamp[v] = epoch;
    }
  };

  s.frontier.clear();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Vertex src = sources[i];
    const std::uint64_t bit = 1ull << i;
    if (s.cur_mask[src] == 0) s.frontier.push_back(src);
    s.cur_mask[src] |= bit;
    mark_seen(src, bit);
    s.dist[src * kMsBfsBatch + i] = 0;
  }

  // `seen` is static during a level's expansion, so the per-neighbor
  // propagate masks are pure gathers — exactly what simd::ms_propagate
  // vectorizes. Scratch for one chunk of gathered masks:
  std::uint64_t prop[kMsPropagateChunk];

  Dist level = 0;
  while (!s.frontier.empty() && level < max_depth) {
    s.next.clear();
    for (Vertex v : s.frontier) {
      const std::uint64_t fmask = s.cur_mask[v];
      const auto nb = g.neighbors(v);
      if (nb.size() < kMsPropagateMinDegree) {
        for (Vertex w : nb) {
          const std::uint64_t propagate = fmask & ~seen_at(w);
          if (propagate != 0) {
            if (s.nxt_mask[w] == 0) s.next.push_back(w);
            s.nxt_mask[w] |= propagate;
          }
        }
      } else {
        const Vertex* ws = nb.data();
        const std::size_t deg = nb.size();
        for (std::size_t off = 0; off < deg; off += kMsPropagateChunk) {
          const std::size_t cnt = std::min(kMsPropagateChunk, deg - off);
          simd::ms_propagate(ws + off, cnt, fmask, s.seen.data(),
                             s.seen_stamp.data(), epoch, prop);
          for (std::size_t j = 0; j < cnt; ++j) {
            const std::uint64_t propagate = prop[j];
            if (propagate != 0) {
              const Vertex w = ws[off + j];
              if (s.nxt_mask[w] == 0) s.next.push_back(w);
              s.nxt_mask[w] |= propagate;
            }
          }
        }
      }
    }
    // Settle the level: commit new mask bits and record first-arrival
    // distances. `seen` is static during expansion, so nxt_mask already
    // holds exactly the newly reached (source, vertex) pairs.
    for (Vertex w : s.next) {
      std::uint64_t newbits = s.nxt_mask[w];
      mark_seen(w, newbits);
      while (newbits != 0) {
        const auto i =
            static_cast<std::size_t>(std::countr_zero(newbits));
        newbits &= newbits - 1;
        s.dist[w * kMsBfsBatch + i] = level + 1;
      }
    }
    // Restore the mask invariants before the role swap.
    for (Vertex v : s.frontier) s.cur_mask[v] = 0;
    s.frontier.swap(s.next);
    std::swap(s.cur_mask, s.nxt_mask);
    ++level;
  }
  // Depth-capped exit can leave a live frontier; re-zero its masks.
  for (Vertex v : s.frontier) s.cur_mask[v] = 0;

  return MsBfsView{
      sources.size(), std::span<const Dist>(s.dist.data(), n * kMsBfsBatch),
      std::span<const std::uint64_t>(s.seen.data(), n),
      std::span<const std::uint32_t>(s.seen_stamp.data(), n), epoch};
}

}  // namespace dcs
