#include "persist/wal.hpp"

#include <sys/stat.h>

namespace dcs::persist {

std::optional<WalWriter> WalWriter::open(const std::string& path,
                                         bool fsync_each_wave,
                                         std::string* error_out) {
  std::string err;
  File file = File::create(path, &err);
  if (!file.valid()) {
    if (error_out != nullptr) *error_out = err;
    return std::nullopt;
  }
  WalWriter writer;
  writer.file_ = std::move(file);
  writer.fsync_each_wave_ = fsync_each_wave;
  writer.healthy_ = true;
  return writer;
}

bool WalWriter::append(std::uint64_t wave,
                       std::span<const FaultEvent> events) {
  if (!healthy_) return false;
  Encoder enc;
  enc.u64(wave);
  enc.u32(static_cast<std::uint32_t>(events.size()));
  for (const FaultEvent& e : events) {
    enc.u8(static_cast<std::uint8_t>(e.kind));
    enc.u32(e.u);
    enc.u32(e.v);
  }
  const std::string payload = enc.take();
  if (!write_record(file_, kWalWaveRecord, payload) ||
      (fsync_each_wave_ && !file_.sync())) {
    healthy_ = false;
    error_ = file_.error();
    return false;
  }
  ++records_;
  bytes_ += kFrameHeaderBytes + payload.size();
  return true;
}

bool WalWriter::finish() {
  if (!file_.valid()) return healthy_;
  const bool ok = file_.sync() && file_.close();
  if (!ok && error_.empty()) error_ = file_.error();
  healthy_ = healthy_ && ok;
  return ok;
}

WalContents read_wal(const std::string& path, std::uint64_t first_wave,
                     std::size_t num_vertices) {
  WalContents out;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    out.detail = "wal missing (treated as empty)";
    return out;  // clean empty log
  }
  std::string bytes;
  std::string err;
  if (!read_file(path, bytes, &err)) {
    out.tail = TailStatus::kCorrupt;
    out.detail = err;
    return out;
  }
  const ParsedRecords parsed = parse_records(bytes);
  out.tail = parsed.tail;
  out.valid_bytes = parsed.valid_bytes;
  out.detail = parsed.detail;

  std::uint64_t expected = first_wave;
  for (const Record& rec : parsed.records) {
    if (rec.kind != kWalWaveRecord) {
      out.tail = TailStatus::kCorrupt;
      out.detail = "unexpected record kind " + std::to_string(rec.kind);
      break;
    }
    Decoder dec(rec.payload);
    WalWave wave;
    wave.wave = dec.u64();
    const std::uint32_t count = dec.u32();
    bool bad = !dec.ok() || wave.wave != expected ||
               count > dec.remaining() / 9;
    if (!bad) {
      wave.events.reserve(count);
      for (std::uint32_t i = 0; i < count && !bad; ++i) {
        const std::uint8_t kind = dec.u8();
        const Vertex u = dec.u32();
        const Vertex v = dec.u32();
        if (!dec.ok() || kind > static_cast<std::uint8_t>(FaultKind::kEdgeUp)) {
          bad = true;
          break;
        }
        FaultEvent event;
        event.wave = static_cast<std::size_t>(wave.wave);
        event.kind = static_cast<FaultKind>(kind);
        event.u = u;
        event.v = v;
        const bool edge_event = event.kind == FaultKind::kEdgeDown ||
                                event.kind == FaultKind::kEdgeUp;
        if (u >= num_vertices || (edge_event && v >= num_vertices)) {
          bad = true;
          break;
        }
        wave.events.push_back(event);
      }
      if (!bad && !dec.done()) bad = true;
    }
    if (bad) {
      // A record that frames and CRCs correctly but decodes inconsistently
      // (gap in the wave sequence, out-of-range vertex) is not this
      // checkpoint's log from this point on — stop and report corrupt.
      out.tail = TailStatus::kCorrupt;
      out.detail = "wal record " + std::to_string(out.waves.size()) +
                   " inconsistent (expected wave " +
                   std::to_string(expected) + ")";
      break;
    }
    out.waves.push_back(std::move(wave));
    ++expected;
  }
  return out;
}

}  // namespace dcs::persist
