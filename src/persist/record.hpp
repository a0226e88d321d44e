#pragma once

// Length-prefixed, CRC32-guarded record framing for checkpoints and WALs.
//
// On-disk frame (all integers little-endian, fixed width):
//
//     u32 magic 'DCSR' | u8 kind | u32 payload_len | u32 crc32(payload) | payload
//
// The frame is designed so a reader can always classify the tail of a file:
//
//  * kClean   — the file ends exactly at a frame boundary;
//  * kTorn    — the trailing bytes are a *prefix* of a frame (header cut
//               short, or payload shorter than its declared length). This is
//               what a crash mid-append leaves behind; the valid prefix
//               before it is trustworthy and the tail is truncated away.
//  * kCorrupt — a complete frame is present but its magic or CRC does not
//               match (bit rot, overwrite, injected bit-flip). Nothing after
//               this point can be trusted either — a flipped length field
//               desynchronizes all subsequent framing — so parsing stops,
//               and callers decide whether the prefix alone is acceptable.
//
// Payloads are encoded with the Encoder/Decoder helpers below: explicit
// little-endian fixed-width integers and LEB128 varints, bounds-checked on
// decode, so a checkpoint written on one machine replays identically on
// another.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "persist/fs.hpp"

namespace dcs::persist {

inline constexpr std::uint32_t kRecordMagic = 0x52534344;  // "DCSR" in LE

/// Bytes a frame header adds in front of its payload.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4 + 4;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), table-driven and sliced by
/// eight: each step folds one 8-byte word through eight tables.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);
inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// Little-endian payload builder. Each integer is stored as one whole word
/// at a cursor into a buffer that grows geometrically, or that a caller
/// who knows its output size sizes once up front.
class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(std::size_t capacity) : buf_(capacity, '\0') {}

  void u8(std::uint8_t v) { *grab(1) = static_cast<char>(v); }
  void u32(std::uint32_t v) { store_le(grab(4), v); }
  void u64(std::uint64_t v) { store_le(grab(8), v); }
  /// Unsigned LEB128: seven bits per byte, low group first, the high bit
  /// set on every byte but the last; 1 to 5 bytes.
  void varint(std::uint32_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }
  void bytes(std::string_view b);

  /// Frames in place: begin_frame appends a frame header, and end_frame
  /// fills in its length and CRC over everything appended since. The
  /// bytes equal append_frame's, without a copy of the payload. Frames do
  /// not nest.
  void begin_frame(std::uint8_t kind);
  void end_frame();

  /// The bytes appended so far; leaves the encoder empty.
  std::string take();

 private:
  /// Advances the cursor over `n` bytes and returns where they start.
  char* grab(std::size_t n) {
    if (buf_.size() - pos_ < n) grow(n);
    char* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }
  void grow(std::size_t n);

  /// Stores `v` little-endian at `p`, as one word on little-endian hosts.
  template <typename T>
  static void store_le(char* p, T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, sizeof(v));
    } else {
      for (std::size_t i = 0; i < sizeof(v); ++i) {
        p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
      }
    }
  }

  std::string buf_;
  std::size_t pos_ = 0;          ///< bytes appended
  std::size_t frame_start_ = 0;  ///< offset of the open frame's header
};

/// Bounds-checked little-endian payload reader. Any out-of-bounds read sets
/// a sticky failure flag and returns 0 — callers check ok() once at the end
/// instead of threading a status through every field.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Reads what Encoder::varint writes. A varint cut short, longer than 5
  /// bytes or not in its shortest form, or a value ≥ 2³², is a failure.
  std::uint32_t varint();

  bool ok() const { return ok_; }
  /// True when every byte was consumed and no read overran.
  bool done() const { return ok_ && pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const unsigned char* take(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

struct Record {
  std::uint8_t kind = 0;
  std::string payload;
};

/// Serializes one frame (header + payload) into `out`.
void append_frame(std::string& out, std::uint8_t kind,
                  std::string_view payload);

/// Appends one frame through the (fault-injectable) file seam.
bool write_record(File& file, std::uint8_t kind, std::string_view payload);

enum class TailStatus : std::uint8_t {
  kClean,    ///< file ends on a frame boundary
  kTorn,     ///< trailing partial frame (crash mid-append) — truncatable
  kCorrupt,  ///< bad magic or CRC mid-stream — prefix only, flagged loudly
};

const char* to_string(TailStatus status);

struct ParsedRecords {
  std::vector<Record> records;  ///< the valid prefix
  TailStatus tail = TailStatus::kClean;
  std::size_t valid_bytes = 0;  ///< offset of the first non-valid byte
  std::string detail;           ///< diagnostic for non-clean tails
};

/// Walks `bytes` frame by frame, returning every fully-validated record
/// before the first anomaly. Never throws; a hostile length field cannot
/// make it read out of bounds or allocate more than the file's own size.
ParsedRecords parse_records(std::string_view bytes);

}  // namespace dcs::persist
