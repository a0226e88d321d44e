#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/baseline_spanners.hpp"
#include "graph/generators.hpp"
#include "persist/checkpoint.hpp"
#include "persist/durability.hpp"
#include "persist/fs.hpp"
#include "persist/record.hpp"
#include "persist/wal.hpp"
#include "resilience/churn_engine.hpp"
#include "resilience/supervisor.hpp"
#include "traversal_corpus.hpp"

namespace dcs::persist {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::string out;
  std::string err;
  EXPECT_TRUE(read_file(path, out, &err)) << err;
  return out;
}

void dump(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

/// Every test that arms the process-global injector must disarm on every
/// exit path, or the next test inherits its fault plan.
struct InjectorGuard {
  ~InjectorGuard() { FsFaultInjector::instance().disarm(); }
};

// ------------------------------------------------------------------ record

TEST(Crc32, KnownVectorsAndChaining) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  // Incremental computation over a split buffer matches one shot.
  const std::string_view all = "durability is a protocol, not a syscall";
  const std::uint32_t split =
      crc32(all.substr(10), crc32(all.substr(0, 10)));
  EXPECT_EQ(split, crc32(all));
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // The sliced kernel folds eight bytes per step, then finishes bytewise;
  // lengths 0–67 at offsets 0–7 cover every head and tail alignment.
  const auto reference = [](const unsigned char* p, std::size_t size) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<unsigned char> bytes(8 + 67);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 151 + 7);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 67; ++size) {
      EXPECT_EQ(crc32(bytes.data() + offset, size),
                reference(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Record, EncoderDecoderRoundTrip) {
  Encoder enc;
  enc.u8(0xAB);
  enc.u32(0xDEADBEEF);
  enc.u64(0x0123456789ABCDEFull);
  enc.bytes("tail");
  const std::string bytes = enc.take();

  Decoder dec(bytes);
  EXPECT_EQ(dec.u8(), 0xAB);
  EXPECT_EQ(dec.u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.remaining(), 4u);
  EXPECT_TRUE(dec.ok());
  EXPECT_FALSE(dec.done());

  // Overrunning the buffer is sticky, not fatal.
  Decoder over(bytes.substr(0, 3));
  over.u32();
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.u64(), 0u);
  EXPECT_FALSE(over.done());
}

TEST(Record, VarintRoundTripAndRejects) {
  const struct {
    std::uint32_t value;
    std::size_t bytes;
  } cases[] = {{0, 1},         {1, 1},         {127, 1},
               {128, 2},       {16383, 2},     {16384, 3},
               {1u << 21, 4},  {(1u << 28) - 1, 4},
               {1u << 28, 5},  {0xFFFFFFFFu, 5}};
  for (const auto& c : cases) {
    Encoder enc;
    enc.varint(c.value);
    const std::string bytes = enc.take();
    EXPECT_EQ(bytes.size(), c.bytes) << c.value;
    Decoder dec(bytes);
    EXPECT_EQ(dec.varint(), c.value);
    EXPECT_TRUE(dec.done()) << c.value;
  }
  const std::string rejected[] = {
      std::string("\x80\x80\x80\x80\x80\x00", 6),  // longer than 5 bytes
      std::string("\x80\x80\x80\x80\x10", 5),      // 2³²
      std::string("\xff\xff\xff\xff\x7f", 5),      // 2³⁵ − 1
      std::string("\x81\x00", 2),                  // 1, padded
      std::string("\x80", 1),                      // cut short
      std::string(),
  };
  for (const std::string& bytes : rejected) {
    Decoder dec(bytes);
    EXPECT_EQ(dec.varint(), 0u);
    EXPECT_FALSE(dec.ok()) << bytes.size() << " bytes";
  }
}

TEST(Record, ParseClassifiesCleanTornAndCorruptTails) {
  std::string bytes;
  append_frame(bytes, 1, "alpha");
  append_frame(bytes, 2, "beta");
  append_frame(bytes, 3, "");

  const auto clean = parse_records(bytes);
  EXPECT_EQ(clean.tail, TailStatus::kClean);
  ASSERT_EQ(clean.records.size(), 3u);
  EXPECT_EQ(clean.records[0].payload, "alpha");
  EXPECT_EQ(clean.records[1].kind, 2);
  EXPECT_EQ(clean.records[2].payload, "");
  EXPECT_EQ(clean.valid_bytes, bytes.size());

  // Every possible truncation point inside the last frame is torn, and the
  // two complete frames before it survive.
  std::string first_two;
  append_frame(first_two, 1, "alpha");
  append_frame(first_two, 2, "beta");
  for (std::size_t cut = first_two.size() + 1; cut < bytes.size(); ++cut) {
    const auto torn = parse_records(std::string_view(bytes).substr(0, cut));
    EXPECT_EQ(torn.tail, TailStatus::kTorn) << "cut at " << cut;
    EXPECT_EQ(torn.records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(torn.valid_bytes, first_two.size()) << "cut at " << cut;
  }

  // A complete frame with a flipped payload byte (the last byte of frame
  // 2's payload) is corrupt, not torn.
  std::string flipped = bytes;
  flipped[first_two.size() - 1] ^= 0x01;
  const auto corrupt = parse_records(flipped);
  EXPECT_EQ(corrupt.tail, TailStatus::kCorrupt);
  EXPECT_EQ(corrupt.records.size(), 1u);

  // A flipped magic byte is corrupt immediately.
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  const auto nomagic = parse_records(bad_magic);
  EXPECT_EQ(nomagic.tail, TailStatus::kCorrupt);
  EXPECT_TRUE(nomagic.records.empty());
}

// ---------------------------------------------------------------------- fs

TEST(AtomicWrite, PublishesAtomicallyAndLeavesNoTemp) {
  const std::string dir = temp_dir("persist_atomic");
  fs::create_directories(dir);
  const std::string path = dir + "/artifact.json";

  std::string err;
  ASSERT_TRUE(atomic_write_file(path, "{\"v\":1}", &err)) << err;
  EXPECT_EQ(slurp(path), "{\"v\":1}");
  ASSERT_TRUE(atomic_write_file(path, "{\"v\":2}", &err)) << err;
  EXPECT_EQ(slurp(path), "{\"v\":2}");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FaultInjection, MatrixOfWriteFailures) {
  InjectorGuard guard;
  const std::string dir = temp_dir("persist_faults");
  fs::create_directories(dir);
  const std::string path = dir + "/target";
  std::string err;
  ASSERT_TRUE(atomic_write_file(path, "original", &err)) << err;

  auto& inj = FsFaultInjector::instance();

  // Short write: the retry loop completes it — net success, full bytes.
  inj.arm_one(0, FsFaultKind::kShortWrite);
  EXPECT_TRUE(atomic_write_file(path, "short-write-payload", &err)) << err;
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_EQ(slurp(path), "short-write-payload");

  // ENOSPC: nothing lands, the published file is untouched, no temp file.
  inj.arm_one(0, FsFaultKind::kEnospc);
  EXPECT_FALSE(atomic_write_file(path, "lost-to-enospc", &err));
  EXPECT_NE(err.find("No space"), std::string::npos) << err;
  EXPECT_EQ(slurp(path), "short-write-payload");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Torn write: a prefix landed in the temp file, which must be discarded.
  inj.arm_one(0, FsFaultKind::kTornWrite);
  EXPECT_FALSE(atomic_write_file(path, "torn-write-payload", &err));
  EXPECT_EQ(slurp(path), "short-write-payload");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // fsync failure: the write is not durable, so it is not published.
  inj.arm_one(1, FsFaultKind::kFsyncFail);
  EXPECT_FALSE(atomic_write_file(path, "unsynced-payload", &err));
  EXPECT_EQ(slurp(path), "short-write-payload");

  // Bit flip: the write "succeeds" — exactly one bit differs on disk. The
  // fs layer cannot see it; the record layer's CRC must.
  inj.arm_one(0, FsFaultKind::kBitFlip);
  EXPECT_TRUE(atomic_write_file(path, "bit-flipped-payload", &err)) << err;
  const std::string flipped = slurp(path);
  ASSERT_EQ(flipped.size(), std::string("bit-flipped-payload").size());
  std::size_t diff_bits = 0;
  for (std::size_t i = 0; i < flipped.size(); ++i) {
    diff_bits += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned char>(flipped[i]) ^
        static_cast<unsigned char>("bit-flipped-payload"[i])));
  }
  EXPECT_EQ(diff_bits, 1u);
}

// -------------------------------------------------------------- checkpoint

CheckpointData sample_checkpoint() {
  CheckpointData data;
  data.wave = 42;
  data.epoch = 17;
  data.graph = random_regular(32, 6, 9);
  data.spanner = baswana_sen_3_spanner(data.graph, 5).h;
  data.down_vertices = {3, 7, 19};
  const auto edges = data.graph.edges();
  data.down_edges = {canonical(edges[0]), canonical(edges[5])};
  std::sort(data.down_edges.begin(), data.down_edges.end());
  data.debt = {canonical(edges[10]), canonical(edges[2])};  // arrival order
  data.debt_oldest_wave = 40;
  data.repairs = 11;
  data.rebuilds = 2;
  data.last_rebuild_wave = 33;
  data.last_check_wave = 41;
  data.held_streak = 1;
  data.emergency_rebuild = false;
  data.cert_dirty = true;
  return data;
}

TEST(Checkpoint, RoundTripPreservesEveryField) {
  const CheckpointData data = sample_checkpoint();
  const std::string bytes = encode_checkpoint(data);

  std::string err;
  const auto decoded = decode_checkpoint(bytes, &err);
  ASSERT_TRUE(decoded.has_value()) << err;
  EXPECT_EQ(decoded->wave, data.wave);
  EXPECT_EQ(decoded->epoch, data.epoch);
  EXPECT_TRUE(decoded->graph == data.graph);
  EXPECT_TRUE(decoded->spanner == data.spanner);
  EXPECT_EQ(decoded->down_vertices, data.down_vertices);
  EXPECT_EQ(decoded->down_edges, data.down_edges);
  EXPECT_EQ(decoded->debt, data.debt);
  EXPECT_EQ(decoded->debt_oldest_wave, data.debt_oldest_wave);
  EXPECT_EQ(decoded->repairs, data.repairs);
  EXPECT_EQ(decoded->rebuilds, data.rebuilds);
  EXPECT_EQ(decoded->last_rebuild_wave, data.last_rebuild_wave);
  EXPECT_EQ(decoded->last_check_wave, data.last_check_wave);
  EXPECT_EQ(decoded->held_streak, data.held_streak);
  EXPECT_EQ(decoded->emergency_rebuild, data.emergency_rebuild);
  EXPECT_EQ(decoded->cert_dirty, data.cert_dirty);
}

TEST(Checkpoint, EncodingIsByteDeterministic) {
  const CheckpointData data = sample_checkpoint();
  EXPECT_EQ(encode_checkpoint(data), encode_checkpoint(data));
}

TEST(Checkpoint, EncodingMatchesRecordedBytes) {
  // FNV-1a of the bytes of a checkpoint with faults and debt. It pins the
  // on-disk format: a framing or encoding change that moves one byte
  // fails here.
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    digest ^= c;
    digest *= 0x100000001b3ull;
  }
  EXPECT_EQ(bytes.size(), 492u);
  EXPECT_EQ(digest, 0x7358462d5f740f82ull);
}

TEST(Checkpoint, RejectsTamperedBytes) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  std::string err;

  // Any truncation: a checkpoint without its footer is invalid outright.
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                          std::size_t{0}, std::size_t{5}}) {
    EXPECT_FALSE(
        decode_checkpoint(std::string_view(bytes).substr(0, cut), &err)
            .has_value())
        << "cut at " << cut;
  }

  // A spanner that is not a subgraph of G decodes structurally but must be
  // rejected semantically.
  CheckpointData rogue = sample_checkpoint();
  rogue.spanner = random_regular(32, 4, 1234);  // same n, different edges
  ASSERT_FALSE(rogue.graph.contains_subgraph(rogue.spanner));
  EXPECT_FALSE(
      decode_checkpoint(encode_checkpoint(rogue), &err).has_value());
  EXPECT_NE(err.find("subgraph"), std::string::npos) << err;

  // Out-of-range debt entries are rejected too.
  CheckpointData bad_debt = sample_checkpoint();
  bad_debt.debt.push_back(canonical(Edge{1, 2}));
  if (!bad_debt.graph.has_edge(1, 2)) {
    EXPECT_FALSE(
        decode_checkpoint(encode_checkpoint(bad_debt), &err).has_value());
  }
}

TEST(Checkpoint, GapCodedGraphsRoundTripOverCorpus) {
  auto graphs = dcs::testing::corpus();
  graphs.push_back(Graph(0));
  for (const Graph& g : graphs) {
    CheckpointData data;
    data.wave = 3;
    data.graph = g;
    std::vector<Edge> kept;
    const auto edges = g.edges();
    for (std::size_t i = 0; i < edges.size(); i += 2) kept.push_back(edges[i]);
    data.spanner = Graph::from_edges(g.num_vertices(), kept);
    std::string err;
    const auto decoded = decode_checkpoint(encode_checkpoint(data), &err);
    ASSERT_TRUE(decoded.has_value())
        << "n=" << g.num_vertices() << ": " << err;
    EXPECT_TRUE(decoded->graph == data.graph) << "n=" << g.num_vertices();
    EXPECT_TRUE(decoded->spanner == data.spanner) << "n=" << g.num_vertices();
  }
}

/// `bytes` with the payload of record `index` replaced, re-framed so every
/// CRC holds: what reaches the graph decoder is exactly `payload`.
std::string with_payload(std::string_view bytes, std::size_t index,
                         std::string_view payload) {
  const ParsedRecords parsed = parse_records(bytes);
  std::string out;
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    append_frame(out, parsed.records[i].kind,
                 i == index ? payload : parsed.records[i].payload);
  }
  return out;
}

/// A kGraph / kSpanner payload: n as a u64, then `rows` as raw bytes.
std::string rows_payload(std::uint64_t n, std::string_view rows) {
  Encoder enc;
  enc.u64(n);
  enc.bytes(rows);
  return enc.take();
}

TEST(Checkpoint, DecodeRejectsMalformedGraphRows) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  const std::size_t n = sample_checkpoint().graph.num_vertices();
  const std::string empty_rows(n, '\0');  // every count 0: no edges
  ASSERT_EQ(n, 32u);
  const auto rows = [&](std::string_view head, std::size_t zero_rows) {
    return std::string(head) + std::string(zero_rows, '\0');
  };
  const struct {
    const char* what;
    std::string payload;
    const char* error;
  } cases[] = {
      {"overlong varint",
       rows_payload(n, rows(std::string("\x80\x80\x80\x80\x80\x00", 6),
                            n - 1)),
       "graph: bad varint"},
      {"padded varint",
       rows_payload(n, rows(std::string("\x80\x00", 2), n - 1)),
       "graph: bad varint"},
      {"varint >= 2^32",
       rows_payload(n, rows("\x80\x80\x80\x80\x10", n - 1)),
       "graph: bad varint"},
      {"count > n-1-u (u = 0)",
       rows_payload(n, rows("\x20", n)),
       "graph: row count out of range"},
      {"count > n-1-u (u = n-1)",
       rows_payload(n, rows("", n - 1) + "\x01\x01"),
       "graph: row count out of range"},
      {"count > bytes left",  // row 1 claims 30 neighbours, 27 bytes left
       rows_payload(n, rows("\x03\x01\x01\x01\x1e", n - 5)),
       "graph: row count out of range"},
      {"gap past n-1",
       rows_payload(n, rows("\x01\x20", n - 1)),
       "graph: neighbour out of range"},
      {"gap past n-1 (u = n-2)",
       rows_payload(n, rows("", n - 2) + "\x01\x02" + '\0'),
       "graph: neighbour out of range"},
      {"zero gap",
       rows_payload(n, rows(std::string("\x02\x01\x00", 3), n - 1)),
       "graph: neighbour out of range"},
      {"cut inside a varint",
       rows_payload(n, rows("", n - 1) + "\x80"),
       "graph: bad varint"},
      {"trailing bytes",
       rows_payload(n, empty_rows + '\0'),
       "graph: trailing bytes"},
      {"n larger than the payload allows",
       rows_payload(n + 1, empty_rows),
       "graph: bad vertex count"},
      {"n = 2^40",
       rows_payload(std::uint64_t{1} << 40, empty_rows),
       "graph: bad vertex count"},
      {"no n", std::string(7, '\0'), "graph: bad vertex count"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_FALSE(
        decode_checkpoint(with_payload(bytes, 1, c.payload), &err)
            .has_value())
        << c.what;
    EXPECT_EQ(err, c.error) << c.what;
  }
  // The spanner record goes through the same decoder.
  std::string err;
  EXPECT_FALSE(decode_checkpoint(
                   with_payload(bytes, 2, rows_payload(n, empty_rows + '\0')),
                   &err)
                   .has_value());
  EXPECT_EQ(err, "spanner: trailing bytes");
  // And the well-formed edgeless rows decode (then fail H ⊆ G).
  EXPECT_FALSE(
      decode_checkpoint(with_payload(bytes, 1, rows_payload(n, empty_rows)),
                        &err)
          .has_value());
  EXPECT_NE(err.find("subgraph"), std::string::npos) << err;
}

TEST(Checkpoint, Version1FailsClosed) {
  const CheckpointData data = sample_checkpoint();
  Encoder header;
  header.u32(1);
  header.u64(data.graph.num_vertices());
  header.u64(data.wave);
  header.u64(data.epoch);
  std::string err;
  EXPECT_FALSE(decode_checkpoint(
                   with_payload(encode_checkpoint(data), 0, header.take()),
                   &err)
                   .has_value());
  EXPECT_NE(err.find("version 1 unsupported"), std::string::npos) << err;
}

// --------------------------------------------------------------------- wal

TEST(Wal, RoundTripTornTailAndWaveGaps) {
  const std::string dir = temp_dir("persist_wal");
  fs::create_directories(dir);
  const std::string path = dir + "/wal.log";

  std::vector<WalWave> waves;
  waves.push_back({5, {FaultEvent::vertex_down(5, 3),
                       FaultEvent::edge_down(5, Edge{1, 2})}});
  waves.push_back({6, {}});  // empty waves are logged too
  waves.push_back({7, {FaultEvent::vertex_up(7, 3)}});

  std::string err;
  auto writer = WalWriter::open(path, /*fsync_each_wave=*/true, &err);
  ASSERT_TRUE(writer.has_value()) << err;
  for (const auto& w : waves) ASSERT_TRUE(writer->append(w.wave, w.events));
  ASSERT_TRUE(writer->finish());

  const auto contents = read_wal(path, 5, 16);
  EXPECT_EQ(contents.tail, TailStatus::kClean);
  ASSERT_EQ(contents.waves.size(), 3u);
  for (std::size_t i = 0; i < waves.size(); ++i) {
    EXPECT_EQ(contents.waves[i].wave, waves[i].wave);
    EXPECT_EQ(contents.waves[i].events, waves[i].events);
  }

  // A torn tail (half an appended frame) truncates to the valid prefix.
  const std::string full = slurp(path);
  std::string torn_bytes = full;
  append_frame(torn_bytes, kWalWaveRecord, "partial");
  dump(path, std::string_view(torn_bytes).substr(0, full.size() + 7));
  const auto torn = read_wal(path, 5, 16);
  EXPECT_EQ(torn.tail, TailStatus::kTorn);
  EXPECT_EQ(torn.waves.size(), 3u);

  // A wave-number gap invalidates everything from the gap on.
  dump(path, full);
  auto writer2 = WalWriter::open(dir + "/gap.log", true, &err);
  ASSERT_TRUE(writer2.has_value()) << err;
  ASSERT_TRUE(writer2->append(5, {}));
  ASSERT_TRUE(writer2->append(9, {}));  // gap: 6,7,8 missing
  ASSERT_TRUE(writer2->finish());
  const auto gapped = read_wal(dir + "/gap.log", 5, 16);
  EXPECT_EQ(gapped.tail, TailStatus::kCorrupt);
  EXPECT_EQ(gapped.waves.size(), 1u);

  // A missing WAL is a valid empty log.
  const auto missing = read_wal(dir + "/nonexistent.log", 0, 16);
  EXPECT_EQ(missing.tail, TailStatus::kClean);
  EXPECT_TRUE(missing.waves.empty());
}

// -------------------------------------------------------------- durability

TEST(Durability, FallsBackAcrossCorruptGenerations) {
  const std::string dir = temp_dir("persist_fallback");
  const CheckpointData data = sample_checkpoint();

  DurabilityManager dm(dir);
  ASSERT_TRUE(dm.checkpoint(data));
  CheckpointData newer = data;
  newer.wave = 50;
  ASSERT_TRUE(dm.checkpoint(newer));
  EXPECT_EQ(dm.generation(), 2u);

  // Corrupt the newest generation on disk; recovery must fall back to 1.
  std::string bytes = slurp(dm.checkpoint_path(2));
  bytes[bytes.size() / 2] ^= 0x40;
  dump(dm.checkpoint_path(2), bytes);

  DurabilityManager reader(dir);
  const auto recovered = reader.recover();
  ASSERT_TRUE(recovered.has_value()) << reader.last_error();
  EXPECT_EQ(recovered->generation, 1u);
  EXPECT_EQ(recovered->generations_skipped, 1u);
  EXPECT_EQ(recovered->checkpoint.wave, data.wave);

  // With every generation corrupted, recovery fails closed.
  std::string first = slurp(reader.checkpoint_path(1));
  first[first.size() / 3] ^= 0x08;
  dump(reader.checkpoint_path(1), first);
  DurabilityManager hopeless(dir);
  EXPECT_FALSE(hopeless.recover().has_value());
  EXPECT_FALSE(hopeless.last_error().empty());
}

TEST(Durability, FailedCheckpointLeavesPreviousGenerationAuthoritative) {
  InjectorGuard guard;
  const std::string dir = temp_dir("persist_failed_ckpt");
  const CheckpointData data = sample_checkpoint();

  DurabilityManager dm(dir);
  ASSERT_TRUE(dm.checkpoint(data));

  // Log a wave, then fail the next checkpoint: generation 1 and its WAL
  // must remain the recovery source.
  const std::vector<FaultEvent> wave_events = {
      FaultEvent::vertex_down(42, 1)};
  ASSERT_TRUE(dm.log_wave(42, wave_events));

  auto& inj = FsFaultInjector::instance();
  inj.arm_one(0, FsFaultKind::kEnospc);
  CheckpointData next = data;
  next.wave = 43;
  EXPECT_FALSE(dm.checkpoint(next));
  inj.disarm();
  EXPECT_EQ(dm.generation(), 1u);

  DurabilityManager reader(dir);
  const auto recovered = reader.recover();
  ASSERT_TRUE(recovered.has_value()) << reader.last_error();
  EXPECT_EQ(recovered->generation, 1u);
  ASSERT_EQ(recovered->wal.size(), 1u);
  EXPECT_EQ(recovered->wal[0].wave, 42u);
  EXPECT_EQ(recovered->wal[0].events, wave_events);
}

// ------------------------------------------------- supervisor integration

struct ChurnRun {
  Graph g;
  Graph pre_spanner;
  std::size_t pre_waves = 0;
  std::size_t pre_debt = 0;
};

/// Runs a supervised churn sequence with durability attached, then drops
/// the supervisor without any flush — the moral equivalent of kill -9.
ChurnRun run_and_crash(const std::string& dir, std::size_t waves,
                       std::size_t checkpoint_interval) {
  ChurnRun run;
  run.g = random_regular(48, 8, 21);
  const Graph h0 = baswana_sen_3_spanner(run.g, 3).h;

  SupervisorOptions options;
  options.checkpoint_interval = checkpoint_interval;
  SpannerSupervisor supervisor(run.g, h0, options);
  DurabilityManager durability(dir);
  supervisor.attach_durability(&durability);
  EXPECT_TRUE(supervisor.checkpoint_now());

  ChurnEngineOptions churn;
  churn.seed = 77;
  churn.edge_churn_rate = 0.05;
  churn.vertex_churn_rate = 0.01;
  churn.recovery_rate = 0.3;
  churn.flap_probability = 0.25;
  ChurnEngine engine(run.g, churn);
  for (std::size_t w = 0; w < waves; ++w) supervisor.step(engine.advance());

  run.pre_spanner = supervisor.spanner();
  run.pre_waves = supervisor.waves();
  run.pre_debt = supervisor.repair_debt();
  return run;  // supervisor and durability destroyed here, no flush
}

TEST(Recovery, RebuildsExactPreCrashStateAndRecertifies) {
  const std::string dir = temp_dir("persist_recover");
  // 21 waves with interval 8: checkpoints at 8 and 16, then 5 WAL waves.
  const ChurnRun run = run_and_crash(dir, 21, 8);

  SupervisorOptions options;
  options.checkpoint_interval = 8;
  DurabilityManager durability(dir);
  SupervisorRecovery report;
  const auto recovered =
      SpannerSupervisor::recover(run.g, durability, options, report);
  ASSERT_NE(recovered, nullptr) << report.error;
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(recovered->waves(), run.pre_waves);
  EXPECT_TRUE(recovered->spanner() == run.pre_spanner)
      << "WAL replay must be byte-deterministic";
  EXPECT_EQ(recovered->repair_debt(), run.pre_debt);
  EXPECT_EQ(report.wal_waves_replayed, 5u);
  EXPECT_NE(report.certificate, GuaranteeStatus::kLost);
  EXPECT_TRUE(report.recheckpointed);

  // Recovery is deterministic: recovering again (from the fresh generation
  // recovery itself cut) lands the identical spanner.
  DurabilityManager again(dir);
  SupervisorRecovery report2;
  const auto recovered2 =
      SpannerSupervisor::recover(run.g, again, options, report2);
  ASSERT_NE(recovered2, nullptr) << report2.error;
  EXPECT_TRUE(recovered2->spanner() == recovered->spanner());
  EXPECT_EQ(recovered2->waves(), recovered->waves());
  EXPECT_EQ(recovered2->repair_debt(), recovered->repair_debt());
}

TEST(Recovery, FailsClosedOnWrongGraph) {
  const std::string dir = temp_dir("persist_wrong_graph");
  (void)run_and_crash(dir, 5, 8);

  const Graph other = random_regular(48, 8, 22);  // same n, different edges
  DurabilityManager durability(dir);
  SupervisorRecovery report;
  const auto recovered =
      SpannerSupervisor::recover(other, durability, {}, report);
  EXPECT_EQ(recovered, nullptr);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("differs"), std::string::npos) << report.error;
}

// ------------------------------------------------------- corruption fuzz

/// Satellite 4: flip a bit in, and truncate at, every byte range of a
/// small checkpoint + WAL pair. Recovery must either land on a valid
/// generation or fail closed — never crash (ASan watches), and never hand
/// back a spanner that is not a certified subgraph of the surviving
/// network.
TEST(CorruptionFuzz, EveryByteFlipAndTruncationFailsSafe) {
  const std::string dir = temp_dir("persist_fuzz");
  {
    // Small graph, few waves: the checkpoint + WAL stay ~1 KiB so the
    // byte sweep is exhaustive yet fast.
    const Graph g = random_regular(16, 4, 8);
    const Graph h0 = baswana_sen_3_spanner(g, 2).h;
    SupervisorOptions options;
    options.checkpoint_interval = 4;
    SpannerSupervisor supervisor(g, h0, options);
    DurabilityManager durability(dir);
    supervisor.attach_durability(&durability);
    ASSERT_TRUE(supervisor.checkpoint_now());
    ChurnEngineOptions churn;
    churn.seed = 5;
    churn.edge_churn_rate = 0.08;
    churn.recovery_rate = 0.3;
    ChurnEngine engine(g, churn);
    for (std::size_t w = 0; w < 6; ++w) supervisor.step(engine.advance());
  }
  const Graph g = random_regular(16, 4, 8);

  DurabilityManager probe(dir);
  const std::uint64_t newest = probe.generation();
  ASSERT_GE(newest, 2u);

  std::size_t recovered_runs = 0;
  std::size_t failed_closed = 0;
  const auto exercise = [&](const std::string& path,
                            const std::string& mutated,
                            const std::string& original,
                            const char* what, std::size_t at) {
    dump(path, mutated);
    DurabilityManager dm(dir);
    SupervisorRecovery report;
    const auto sup = SpannerSupervisor::recover(g, dm, {}, report);
    if (sup == nullptr) {
      ++failed_closed;
      EXPECT_FALSE(report.error.empty()) << what << " at " << at;
    } else {
      ++recovered_runs;
      // Whatever generation recovery settled on, the result is a freshly
      // recertified subgraph of the surviving network — corruption can
      // cost generations, never integrity.
      const Graph g_surv = sup->fault_state().surviving(g);
      EXPECT_TRUE(g_surv.contains_subgraph(sup->spanner()))
          << what << " at " << at;
      EXPECT_NE(report.certificate, GuaranteeStatus::kLost)
          << what << " at " << at;
    }
    dump(path, original);
  };

  for (const std::uint64_t gen : {newest, newest - 1}) {
    for (const bool is_wal : {false, true}) {
      const std::string path =
          is_wal ? probe.wal_path(gen) : probe.checkpoint_path(gen);
      if (!fs::exists(path)) continue;
      const std::string original = slurp(path);
      const char* what = is_wal ? "wal-flip" : "ckpt-flip";

      for (std::size_t i = 0; i < original.size(); ++i) {
        std::string mutated = original;
        mutated[i] ^= (1 << (i % 8));
        exercise(path, mutated, original, what, i);
      }
      for (std::size_t cut = 0; cut < original.size();
           cut += (original.size() > 512 ? 7 : 1)) {
        exercise(path, original.substr(0, cut), original,
                 is_wal ? "wal-cut" : "ckpt-cut", cut);
      }
    }
  }
  // The sweep must have seen both outcomes: plenty of mutations are
  // survivable (fallback generation), and some must fail closed (e.g.
  // every generation's checkpoint truncated to nothing is not reachable
  // here, but a flipped newest + intact older always recovers).
  EXPECT_GT(recovered_runs, 0u);
  SUCCEED() << recovered_runs << " recovered, " << failed_closed
            << " failed closed";
}

// ------------------------------------------------------------ concurrency

/// TSan-relevant: concurrent atomic_write_file calls (distinct paths) with
/// the injector armed race only on the injector's op counter, which must
/// be internally synchronized. Every file is afterwards either absent
/// (its write drew a fault) or bitwise-complete.
TEST(Concurrency, ParallelAtomicWritesUnderInjection) {
  InjectorGuard guard;
  const std::string dir = temp_dir("persist_hammer");
  fs::create_directories(dir);

  std::vector<FsFault> plan;
  for (std::uint64_t op = 3; op < 400; op += 9) {
    plan.push_back({op, op % 2 == 0 ? FsFaultKind::kEnospc
                                    : FsFaultKind::kFsyncFail});
  }
  FsFaultInjector::instance().arm(plan);

  constexpr int kThreads = 4;
  constexpr int kFilesPerThread = 32;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&dir, t] {
      for (int i = 0; i < kFilesPerThread; ++i) {
        const std::string path = dir + "/t" + std::to_string(t) + "-" +
                                 std::to_string(i) + ".dat";
        const std::string payload(64 + i, static_cast<char>('a' + t));
        (void)atomic_write_file(path, payload);
      }
    });
  }
  for (auto& w : workers) w.join();
  FsFaultInjector::instance().disarm();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kFilesPerThread; ++i) {
      const std::string path = dir + "/t" + std::to_string(t) + "-" +
                               std::to_string(i) + ".dat";
      if (!fs::exists(path)) continue;  // its write drew a fault
      const std::string payload(64 + i, static_cast<char>('a' + t));
      EXPECT_EQ(slurp(path), payload) << path;
    }
  }
}

}  // namespace
}  // namespace dcs::persist
