// Binary codecs: the field interface every binary record's layout is
// written in (wire messages, the design blob, prune thresholds, the flow
// snapshot), the PUFM frame that envelops every message and stored
// blob, crash-safe file helpers, and the flow snapshot itself.
//
// A FlowSnapshot captures the flow state at the fork point of a staged
// run -- the end of the trial-invariant global-placement prefix -- so K
// exploration trials can restore it and diverge instead of each
// re-running the shared prefix. The captured state is exactly what the
// staged flow contract (core/flow.h: run_prefix / run_from) needs to
// continue bit-identically: every cell's lower-left position (doubles,
// bit-exact), plus the keys that say which design and prefix config it
// belongs to.
//
// A stored snapshot is one PUFM frame (below) of its own frame type, so
// it shares the frame's little-endian layout and FNV-1a trailer;
// save_snapshot writes atomically (tmp + fsync + rename) so a crash never
// leaves a torn checkpoint. Decoding errors throw CheckpointError.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "netlist/design.h"

namespace puffer {

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

// --- field codec -----------------------------------------------------------
// Every binary record states its layout once, as a field walk that both
// directions run:
//
//   template <class IO, FieldsOf<SessionRefMsg> M>
//   void fields(IO& io, M& m) { io.u64(m.session_id); }
//
// BinaryWriter runs it over a const record to encode; BinaryReader runs
// it over a mutable one to decode. Both take the same calls: fixed-width
// little-endian integers, doubles as their IEEE-754 bit pattern (round
// trips are bitwise-exact), enums and bools as one byte, strings and
// double lists as a u64 count plus elements, record lists as a u64
// count plus each element's own walk, and check() -- a condition the
// decoded fields must meet, ignored when encoding. Walks live in
// namespace puffer beside their record's codec, where list() finds them.
//
// The reader throws CheckpointError on truncation, on a count the
// remaining bytes cannot hold (a garbled count must not trigger a huge
// allocation), on a failed check and, in decode_fields, on bytes left
// over; each message starts with the name the reader was given.

// `M` is `T` when decoding and `const T` when encoding.
template <class M, class T>
concept FieldsOf = std::is_same_v<std::remove_const_t<M>, T>;

class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  template <class E>
  void byte(E v, E /*last*/) { u8(static_cast<std::uint8_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    buf_ += s;
  }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    for (const double d : v) f64(d);
  }
  template <class T>
  void list(const std::vector<T>& v) {
    u64(v.size());
    for (const T& e : v) fields(*this, e);
  }
  void check(bool /*ok*/, const char* /*what*/) {}

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  void le(std::uint64_t v, int n) {
    char b[8];
    for (int i = 0; i < n; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, static_cast<std::size_t>(n));
  }

  std::string buf_;
};

class BinaryReader {
 public:
  // `what` names the record in error messages.
  BinaryReader(const std::string& buf, const char* what)
      : buf_(buf), what_(what) {}

  void u8(std::uint8_t& v) { v = static_cast<std::uint8_t>(le(1)); }
  void u32(std::uint32_t& v) { v = static_cast<std::uint32_t>(le(4)); }
  void u64(std::uint64_t& v) { v = le(8); }
  void i32(std::int32_t& v) { v = static_cast<std::int32_t>(le(4)); }
  void f64(double& v) { v = std::bit_cast<double>(le(8)); }
  // An enum or bool no greater than `last`.
  template <class E>
  void byte(E& v, E last) {
    const std::uint64_t b = le(1);
    check(b <= static_cast<std::uint64_t>(last), "byte value out of range");
    v = static_cast<E>(b);
  }
  void str(std::string& s) {
    const std::size_t n = count(1);
    s.assign(buf_, pos_, n);
    pos_ += n;
  }
  void f64s(std::vector<double>& v) {
    v.resize(count(8));
    for (double& d : v) f64(d);
  }
  template <class T>
  void list(std::vector<T>& v) {
    v.resize(count(least_size<T>()));
    for (T& e : v) fields(*this, e);
  }
  void check(bool ok, const char* what) const {
    if (!ok) fail(what);
  }
  // Throws unless every byte was read.
  void finish() const { check(pos_ == buf_.size(), "trailing bytes"); }

 private:
  // Bytes a default-constructed T encodes to: the least any T takes, as
  // its strings and lists are empty.
  template <class T>
  static std::size_t least_size() {
    static const std::size_t n = [] {
      BinaryWriter w;
      fields(w, static_cast<const T&>(T{}));
      return w.buffer().size();
    }();
    return n;
  }
  // Reads a u64 count of elements that take at least `least` bytes each.
  std::size_t count(std::size_t least);
  // Reads an `n`-byte little-endian unsigned integer.
  std::uint64_t le(std::size_t n);
  [[noreturn]] void fail(const char* what) const;

  const std::string& buf_;
  const char* what_;
  std::size_t pos_ = 0;
};

// A list of double lists walks each element as f64s.
template <class IO, FieldsOf<std::vector<double>> V>
void fields(IO& io, V& v) {
  io.f64s(v);
}

// Encodes a record through its field walk.
template <class T>
std::string encode_fields(const T& record) {
  BinaryWriter w;
  fields(w, record);
  return w.take();
}

// Decodes a record that spans all of `body`; `what` names it in errors.
template <class T>
T decode_fields(const std::string& body, const char* what) {
  BinaryReader r(body, what);
  T record;
  fields(r, record);
  r.finish();
  return record;
}

// Defines the named body codecs encode_NAME / decode_NAME of record type
// T from its field walk.
#define PUFFER_FIELD_CODEC(T, name)                                   \
  std::string encode_##name(const T& m) { return encode_fields(m); } \
  T decode_##name(const std::string& body) {                         \
    return decode_fields<T>(body, #name);                            \
  }

// FNV-1a over a byte range (shared by the frame trailer and the
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

// --- frames ----------------------------------------------------------------
// Length-prefixed binary frames: the envelope of every message over a
// byte stream (socket, pipe, ...) and of every stored blob (snapshot,
// design). Layout:
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

// Serializes one frame to bytes.
std::string encode_frame(std::uint32_t type, const std::string& body);

// Decodes `bytes` that must hold exactly one whole frame of `type` (a
// stored blob) and returns its body. Throws CheckpointError on a corrupt
// or truncated frame, another frame type, or bytes after the frame; the
// messages of the last three start with `what`.
std::string decode_frame(const std::string& bytes, std::uint32_t type,
                         const char* what);

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
  // Lower-left positions for *all* cells, index-aligned with
  // Design::cells (fixed cells included: restoring them is free and makes
  // the snapshot self-validating).
  std::vector<double> x, y;
};

// Stable structural hash of a design: counts, die, rows, cell
// geometry/kind, pin offsets and net connectivity -- everything except
// the mutable cell positions.
std::uint64_t design_structure_key(const Design& design);

// FNV-1a over all cells' (x, y) bit patterns -- the bit-identity
// fingerprint shared by trial orchestration and the serve daemon.
std::uint64_t position_checksum(const Design& design);

// One frame of the snapshot type. decode_snapshot throws
// CheckpointError on anything else: a corrupt frame, a snapshot of an
// older layout, or a body with bytes left over.
std::string encode_snapshot(const FlowSnapshot& snap);
FlowSnapshot decode_snapshot(const std::string& bytes);

// Atomic save / validated load.
void save_snapshot(const std::string& path, const FlowSnapshot& snap);
FlowSnapshot load_snapshot(const std::string& path);

}  // namespace puffer
