#include "persist/checkpoint.hpp"

#include <algorithm>
#include <sstream>

namespace dcs::persist {

namespace {

/// Payload bytes of an edge list: its count, then two u32 per edge.
std::size_t edges_bytes(std::size_t edges) { return 8 + 8 * edges; }

void encode_edges(Encoder& enc, const std::vector<Edge>& edges) {
  enc.u64(edges.size());
  for (Edge e : edges) {
    enc.u32(e.u);
    enc.u32(e.v);
  }
}

/// Payload bytes of a gap-coded graph when every count and gap fits one
/// byte; the encoder grows past it when some do not.
std::size_t graph_bytes(const Graph& g) {
  return 8 + g.num_vertices() + g.num_edges();
}

/// n, then for each vertex u its neighbours above u: their count, then the
/// gaps between them, the first measured from u, each as a varint. Read
/// straight off the CSR rows.
void encode_graph(Encoder& enc, const Graph& g) {
  enc.u64(g.num_vertices());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    const auto above = std::upper_bound(nb.begin(), nb.end(), u);
    enc.varint(static_cast<std::uint32_t>(nb.end() - above));
    Vertex prev = u;
    for (auto it = above; it != nb.end(); ++it) {
      enc.varint(*it - prev);
      prev = *it;
    }
  }
}

bool decode_edges(Decoder& dec, std::size_t n, std::vector<Edge>& out,
                  std::string* error, const char* what) {
  const std::uint64_t count = dec.u64();
  // A flipped count cannot force a huge allocation: the payload itself
  // bounds how many edges can actually be present.
  if (!dec.ok() || count > dec.remaining() / 8) {
    if (error != nullptr) *error = std::string(what) + ": bad edge count";
    return false;
  }
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const Vertex u = dec.u32();
    const Vertex v = dec.u32();
    if (!dec.ok() || u >= n || v >= n) {
      if (error != nullptr) {
        *error = std::string(what) + ": edge endpoint out of range";
      }
      return false;
    }
    out.push_back(Edge{u, v});
  }
  return true;
}

std::optional<Graph> decode_graph(std::string_view payload,
                                  std::string* error, const char* what) {
  const auto fail = [&](const char* why) {
    if (error != nullptr) *error = std::string(what) + ": " + why;
    return std::nullopt;
  };
  Decoder dec(payload);
  const std::uint64_t n = dec.u64();
  // Every vertex costs at least one byte, its count, so the payload bounds
  // n and a corrupt n cannot force a large allocation.
  if (!dec.ok() || n > dec.remaining()) return fail("bad vertex count");
  // Every neighbour costs at least one byte too.
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(dec.remaining() - n));
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint32_t count = dec.varint();
    if (!dec.ok()) return fail("bad varint");
    if (count > n - 1 - u || count > dec.remaining()) {
      return fail("row count out of range");
    }
    std::uint64_t v = u;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t gap = dec.varint();
      if (!dec.ok()) return fail("bad varint");
      v += gap;
      if (gap == 0 || v >= n) return fail("neighbour out of range");
      edges.push_back(Edge{static_cast<Vertex>(u), static_cast<Vertex>(v)});
    }
  }
  if (!dec.done()) return fail("trailing bytes");
  return Graph::from_edges(static_cast<std::size_t>(n), edges);
}

}  // namespace

std::string encode_checkpoint(const CheckpointData& data) {
  const std::size_t bytes =
      6 * kFrameHeaderBytes + (4 + 3 * 8) +
      graph_bytes(data.graph) + graph_bytes(data.spanner) +
      (8 + 4 * data.down_vertices.size() +
       edges_bytes(data.down_edges.size())) +
      (edges_bytes(data.debt.size()) + 6 * 8 + 2) + 4;
  Encoder enc(bytes);

  enc.begin_frame(static_cast<std::uint8_t>(CheckpointRecord::kHeader));
  enc.u32(kCheckpointVersion);
  enc.u64(data.graph.num_vertices());
  enc.u64(data.wave);
  enc.u64(data.epoch);
  enc.end_frame();

  enc.begin_frame(static_cast<std::uint8_t>(CheckpointRecord::kGraph));
  encode_graph(enc, data.graph);
  enc.end_frame();
  enc.begin_frame(static_cast<std::uint8_t>(CheckpointRecord::kSpanner));
  encode_graph(enc, data.spanner);
  enc.end_frame();

  enc.begin_frame(static_cast<std::uint8_t>(CheckpointRecord::kFaults));
  enc.u64(data.down_vertices.size());
  for (Vertex v : data.down_vertices) enc.u32(v);
  encode_edges(enc, data.down_edges);
  enc.end_frame();

  enc.begin_frame(static_cast<std::uint8_t>(CheckpointRecord::kSupervisor));
  encode_edges(enc, data.debt);
  enc.u64(data.debt_oldest_wave);
  enc.u64(data.repairs);
  enc.u64(data.rebuilds);
  enc.u64(data.last_rebuild_wave);
  enc.u64(data.last_check_wave);
  enc.u64(data.held_streak);
  enc.u8(data.emergency_rebuild ? 1 : 0);
  enc.u8(data.cert_dirty ? 1 : 0);
  enc.end_frame();

  enc.begin_frame(static_cast<std::uint8_t>(CheckpointRecord::kFooter));
  enc.u32(5);  // records before the footer
  enc.end_frame();
  return enc.take();
}

std::optional<CheckpointData> decode_checkpoint(std::string_view bytes,
                                                std::string* error_out) {
  const auto fail = [error_out](const std::string& why) {
    if (error_out != nullptr) *error_out = why;
    return std::nullopt;
  };

  const ParsedRecords parsed = parse_records(bytes);
  if (parsed.tail != TailStatus::kClean) {
    return fail("checkpoint " + std::string(to_string(parsed.tail)) + ": " +
                parsed.detail);
  }
  if (parsed.records.size() != 6) {
    return fail("checkpoint has " + std::to_string(parsed.records.size()) +
                " records, expected 6");
  }
  const auto expect = [&](std::size_t i, CheckpointRecord kind) {
    return parsed.records[i].kind == static_cast<std::uint8_t>(kind);
  };
  if (!expect(0, CheckpointRecord::kHeader) ||
      !expect(1, CheckpointRecord::kGraph) ||
      !expect(2, CheckpointRecord::kSpanner) ||
      !expect(3, CheckpointRecord::kFaults) ||
      !expect(4, CheckpointRecord::kSupervisor) ||
      !expect(5, CheckpointRecord::kFooter)) {
    return fail("checkpoint record sequence out of order");
  }

  CheckpointData data;

  {
    Decoder dec(parsed.records[0].payload);
    const std::uint32_t version = dec.u32();
    const std::uint64_t n = dec.u64();
    data.wave = dec.u64();
    data.epoch = dec.u64();
    if (!dec.done()) return fail("checkpoint header malformed");
    if (version != kCheckpointVersion) {
      return fail("checkpoint version " + std::to_string(version) +
                  " unsupported");
    }
    auto g = decode_graph(parsed.records[1].payload, error_out, "graph");
    if (!g.has_value()) return std::nullopt;
    auto h = decode_graph(parsed.records[2].payload, error_out, "spanner");
    if (!h.has_value()) return std::nullopt;
    if (g->num_vertices() != n || h->num_vertices() != n) {
      return fail("checkpoint graph vertex counts disagree with header");
    }
    data.graph = std::move(*g);
    data.spanner = std::move(*h);
  }
  const std::size_t n = data.graph.num_vertices();

  {
    Decoder dec(parsed.records[3].payload);
    const std::uint64_t vcount = dec.u64();
    if (!dec.ok() || vcount > n) return fail("faults: bad vertex count");
    data.down_vertices.reserve(static_cast<std::size_t>(vcount));
    for (std::uint64_t i = 0; i < vcount; ++i) {
      const Vertex v = dec.u32();
      if (!dec.ok() || v >= n) return fail("faults: vertex out of range");
      if (i > 0 && v <= data.down_vertices.back()) {
        return fail("faults: vertices not strictly ascending");
      }
      data.down_vertices.push_back(v);
    }
    std::string err;
    if (!decode_edges(dec, n, data.down_edges, &err, "faults")) {
      return fail(err);
    }
    if (!dec.done()) return fail("faults: trailing bytes");
  }

  {
    Decoder dec(parsed.records[4].payload);
    std::string err;
    if (!decode_edges(dec, n, data.debt, &err, "debt")) return fail(err);
    data.debt_oldest_wave = dec.u64();
    data.repairs = dec.u64();
    data.rebuilds = dec.u64();
    data.last_rebuild_wave = dec.u64();
    data.last_check_wave = dec.u64();
    data.held_streak = dec.u64();
    data.emergency_rebuild = dec.u8() != 0;
    data.cert_dirty = dec.u8() != 0;
    if (!dec.done()) return fail("supervisor record malformed");
  }

  {
    Decoder dec(parsed.records[5].payload);
    const std::uint32_t count = dec.u32();
    if (!dec.done() || count != 5) return fail("checkpoint footer malformed");
  }

  // Semantic validation — the structural checks above guarantee the bytes
  // parse; these guarantee the *state* is one the supervisor could actually
  // have been in. A checkpoint that fails here is as corrupt as a CRC miss.
  if (!data.graph.contains_subgraph(data.spanner)) {
    return fail("checkpoint spanner is not a subgraph of its network");
  }
  for (Edge e : data.debt) {
    if (!data.graph.has_edge(e.u, e.v)) {
      return fail("checkpoint debt edge absent from the network");
    }
  }
  return data;
}

}  // namespace dcs::persist
