#include "persist/record.hpp"

#include <algorithm>
#include <array>
#include <sstream>

namespace dcs::persist {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight lookups fold an 8-byte word.
CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

std::uint32_t read_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = c ^ read_u32le(p);
    const std::uint32_t hi = read_u32le(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Encoder::bytes(std::string_view b) {
  if (!b.empty()) std::memcpy(grab(b.size()), b.data(), b.size());
}

void Encoder::grow(std::size_t n) {
  buf_.resize(std::max(2 * buf_.size(), pos_ + n));
}

void Encoder::begin_frame(std::uint8_t kind) {
  frame_start_ = pos_;
  u32(kRecordMagic);
  u8(kind);
  u32(0);  // payload length and CRC: end_frame fills them in
  u32(0);
}

void Encoder::end_frame() {
  char* header = buf_.data() + frame_start_;
  const std::size_t len = pos_ - frame_start_ - kFrameHeaderBytes;
  store_le(header + 5, static_cast<std::uint32_t>(len));
  store_le(header + 9, crc32(header + kFrameHeaderBytes, len));
}

std::string Encoder::take() {
  buf_.resize(pos_);
  std::string out = std::move(buf_);
  buf_.clear();
  pos_ = 0;
  return out;
}

const unsigned char* Decoder::take(std::size_t n) {
  if (!ok_ || bytes_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const auto* p =
      reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Decoder::u8() {
  const unsigned char* p = take(1);
  return p != nullptr ? *p : 0;
}

std::uint32_t Decoder::u32() {
  const unsigned char* p = take(4);
  return p != nullptr ? read_u32le(p) : 0;
}

std::uint32_t Decoder::varint() {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 35; shift += 7) {
    const unsigned char* p = take(1);
    if (p == nullptr) return 0;
    v |= static_cast<std::uint64_t>(*p & 0x7F) << shift;
    if ((*p & 0x80) == 0) {
      // A final zero group after the first byte pads the encoding.
      if ((*p == 0 && shift > 0) || v > 0xFFFFFFFFull) break;
      return static_cast<std::uint32_t>(v);
    }
  }
  ok_ = false;
  return 0;
}

std::uint64_t Decoder::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

void append_frame(std::string& out, std::uint8_t kind,
                  std::string_view payload) {
  Encoder frame(kFrameHeaderBytes + payload.size());
  frame.begin_frame(kind);
  frame.bytes(payload);
  frame.end_frame();
  out.append(frame.take());
}

bool write_record(File& file, std::uint8_t kind, std::string_view payload) {
  std::string frame;
  append_frame(frame, kind, payload);
  return file.write_all(frame);
}

const char* to_string(TailStatus status) {
  switch (status) {
    case TailStatus::kClean: return "clean";
    case TailStatus::kTorn: return "torn";
    case TailStatus::kCorrupt: return "corrupt";
  }
  return "?";
}

ParsedRecords parse_records(std::string_view bytes) {
  ParsedRecords out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t left = bytes.size() - pos;
    if (left < kFrameHeaderBytes) {
      out.tail = TailStatus::kTorn;
      out.detail = "partial frame header (" + std::to_string(left) +
                   " trailing bytes)";
      break;
    }
    const auto* p =
        reinterpret_cast<const unsigned char*>(bytes.data()) + pos;
    const std::uint32_t magic = read_u32le(p);
    if (magic != kRecordMagic) {
      // A wrong magic on a *complete* header is corruption, not a torn
      // append: appends write the header before the payload, so a crash
      // cannot leave garbage where the magic belongs.
      out.tail = TailStatus::kCorrupt;
      {
        std::ostringstream os;
        os << "bad magic 0x" << std::hex << magic << " at offset "
           << std::dec << pos;
        out.detail = os.str();
      }
      break;
    }
    const std::uint8_t kind = p[4];
    const std::uint32_t len = read_u32le(p + 5);
    const std::uint32_t crc = read_u32le(p + 9);
    if (left - kFrameHeaderBytes < len) {
      out.tail = TailStatus::kTorn;
      out.detail = "payload truncated at offset " + std::to_string(pos) +
                   " (" + std::to_string(left - kFrameHeaderBytes) + " of " +
                   std::to_string(len) + " bytes)";
      break;
    }
    const std::string_view payload =
        bytes.substr(pos + kFrameHeaderBytes, len);
    if (crc32(payload) != crc) {
      out.tail = TailStatus::kCorrupt;
      out.detail = "crc mismatch in record " +
                   std::to_string(out.records.size()) + " at offset " +
                   std::to_string(pos);
      break;
    }
    out.records.push_back(Record{kind, std::string(payload)});
    pos += kFrameHeaderBytes + len;
  }
  out.valid_bytes = pos;
  return out;
}

}  // namespace dcs::persist
