// Binary checkpoint codec for trial orchestration (src/orchestrate/).
//
// A FlowSnapshot captures the flow state at the fork point of a staged
// run -- the end of the trial-invariant global-placement prefix -- so K
// exploration trials can restore it and diverge instead of each
// re-running the shared prefix. The captured state is exactly what the
// staged flow contract (core/flow.h: run_prefix / run_from) needs to
// continue bit-identically:
//
//   * every cell's lower-left position (doubles, bit-exact),
//   * the per-movable-cell padding widths at the fork,
//   * the RNG stream state (two words, see common/rng.h).
//
// The file format is versioned, little-endian, with a trailing FNV-1a
// checksum over the payload; save_snapshot writes atomically
// (tmp + fsync + rename) so a crash never leaves a torn checkpoint.
// Decoding errors throw CheckpointError.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/design.h"

namespace puffer {

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

// --- low-level byte codec ------------------------------------------------
// Little-endian writer/reader over an in-memory buffer. Doubles are stored
// as their IEEE-754 bit pattern so round-trips are bitwise-exact.
class BinaryWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t n);
  void put_string(const std::string& s);
  void put_f64_vec(const std::vector<double>& v);

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& buf) : buf_(buf) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::string get_string();
  std::vector<double> get_f64_vec();

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }
  bool at_end() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n) const;
  const std::string& buf_;
  std::size_t pos_ = 0;
};

// FNV-1a over a byte range (shared by the checkpoint trailer and the
// journal's record hashes).
std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                          std::uint64_t h = 1469598103934665603ull);

// --- crash-safe file helpers ---------------------------------------------
// Writes `data` to `path` atomically: tmp file in the same directory,
// fsync, rename over the target, fsync the directory. Throws
// CheckpointError on any I/O failure.
void atomic_write_file(const std::string& path, const std::string& data);

// Reads a whole file; throws CheckpointError when unreadable.
std::string read_file(const std::string& path);

// mkdir -p (relative or absolute); throws CheckpointError when a
// directory cannot be created.
void ensure_dir(const std::string& path);

// --- stream-backed frame I/O ---------------------------------------------
// Length-prefixed binary frames over an arbitrary byte stream (socket,
// pipe, ...): the same codec + FNV-1a integrity story as the checkpoint
// files, but framed so many messages share one connection. Layout:
//
//   u32 magic "PUFM" | u32 wire version | u32 frame type |
//   u64 body size | body bytes | u64 fnv1a(body)
//
// All integers little-endian (BinaryWriter/Reader). Readers reject bad
// magic, unknown versions, oversized bodies and checksum mismatches with
// CheckpointError; a stream that ends mid-frame is "truncated", a stream
// that ends exactly at a frame boundary is a clean EOF.
struct WireFrame {
  std::uint32_t type = 0;
  std::string body;
};

// Frame bodies larger than this are rejected as corruption (a garbled
// length prefix must not trigger a multi-GiB allocation).
constexpr std::uint64_t kMaxFrameBody = 1ull << 30;

// Serializes one frame to bytes (exposed so tests can corrupt it).
std::string encode_frame(std::uint32_t type, const std::string& body);

// Blocking write of one frame to `fd`; retries short writes and EINTR.
// Throws CheckpointError on any I/O failure (including EPIPE -- callers
// treat that as peer death, so SIGPIPE should be ignored process-wide).
void write_frame_fd(int fd, std::uint32_t type, const std::string& body);

// Blocking read of one frame. Returns false on a clean EOF at a frame
// boundary; throws CheckpointError on truncation mid-frame, bad magic,
// version mismatch, oversized body, or checksum failure. Reads no byte
// past the frame, so the next call starts at the next frame.
bool read_frame_fd(int fd, WireFrame* out);

// Incremental frame decoder for non-blocking streams (io/net.h
// FrameServer) and the one place a frame's header and trailer are
// parsed: append() whatever bytes arrived, next() pops complete frames.
// Bad magic, unsupported version, oversized body and checksum mismatches
// throw CheckpointError (after which the stream is unusable and should be
// closed). Bytes of a not-yet-complete frame simply stay buffered.
class FrameBuffer {
 public:
  void append(const char* data, std::size_t n);
  // True (and *out filled) when a complete frame was buffered.
  bool next(WireFrame* out);
  // Bytes still missing before next() can pop a frame: the rest of the
  // header, then the rest of the frame. Throws like next() on a bad
  // header.
  std::size_t missing() const;
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  // Size of the buffered frame from its validated header; 0 while the
  // header is incomplete.
  std::size_t frame_size() const;

  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
};

// --- flow snapshot -------------------------------------------------------
struct FlowSnapshot {
  // Structure key of the design the snapshot was taken from; restoring
  // onto a structurally different design is refused.
  std::uint64_t design_key = 0;
  // Hash of the prefix-relevant configuration (init + gp + fork point);
  // a trial whose prefix config differs must not reuse the checkpoint.
  std::uint64_t prefix_key = 0;
  // Density overflow the prefix ran to (the fork point).
  double fork_overflow = 0.0;
  // Lower-left positions for *all* cells, index-aligned with
  // Design::cells (fixed cells included: restoring them is free and makes
  // the snapshot self-validating).
  std::vector<double> x, y;
  // Per-movable-cell padding widths at the fork (empty = no padding yet;
  // the fork point is normally before the first padding round).
  std::vector<double> padding;
  // RNG stream state at the fork (common/rng.h RngStream).
  std::uint64_t rng_key = 0;
  std::uint64_t rng_counter = 0;
};

// Stable structural hash of a design: counts, die, rows, cell
// geometry/kind, pin offsets and net connectivity -- everything except
// the mutable cell positions.
std::uint64_t design_structure_key(const Design& design);

// FNV-1a over all cells' (x, y) bit patterns -- the bit-identity
// fingerprint shared by trial orchestration and the serve daemon.
std::uint64_t position_checksum(const Design& design);

// Versioned encode/decode (throws CheckpointError on malformed input,
// version mismatch, or checksum failure).
std::string encode_snapshot(const FlowSnapshot& snap);
FlowSnapshot decode_snapshot(const std::string& bytes);

// Atomic save / validated load.
void save_snapshot(const std::string& path, const FlowSnapshot& snap);
FlowSnapshot load_snapshot(const std::string& path);

}  // namespace puffer
