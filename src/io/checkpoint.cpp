#include "io/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace puffer {
namespace {

constexpr std::uint32_t kSnapshotMagic = 0x50554653;  // "PUFS"
constexpr std::uint32_t kSnapshotVersion = 2;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a_bytes(&v, sizeof(v), h);
}

std::uint64_t fnv1a_f64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv1a_u64(h, bits);
}

}  // namespace

// --- BinaryWriter --------------------------------------------------------

void BinaryWriter::put_u32(std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 4);
}

void BinaryWriter::put_u64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 8);
}

void BinaryWriter::put_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void BinaryWriter::put_bytes(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

void BinaryWriter::put_string(const std::string& s) {
  put_u64(s.size());
  buf_.append(s);
}

void BinaryWriter::put_f64_vec(const std::vector<double>& v) {
  put_u64(v.size());
  for (double d : v) put_f64(d);
}

// --- BinaryReader --------------------------------------------------------

void BinaryReader::need(std::size_t n) const {
  if (buf_.size() - pos_ < n) {
    throw CheckpointError("checkpoint: truncated buffer (need " +
                          std::to_string(n) + " bytes at offset " +
                          std::to_string(pos_) + ", have " +
                          std::to_string(buf_.size() - pos_) + ")");
  }
}

std::uint8_t BinaryReader::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(buf_[pos_++]);
}

std::uint32_t BinaryReader::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t BinaryReader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double BinaryReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::get_string() {
  const std::uint64_t n = get_u64();
  if (n > buf_.size() - pos_) {
    throw CheckpointError("checkpoint: string length " + std::to_string(n) +
                          " exceeds buffer");
  }
  std::string s = buf_.substr(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::vector<double> BinaryReader::get_f64_vec() {
  const std::uint64_t n = get_u64();
  if (n > (buf_.size() - pos_) / 8) {
    throw CheckpointError("checkpoint: vector length " + std::to_string(n) +
                          " exceeds buffer");
  }
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(get_f64());
  return v;
}

// --- hashing -------------------------------------------------------------

std::uint64_t fnv1a_bytes(const void* data, std::size_t n, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// --- crash-safe file helpers ---------------------------------------------

namespace {

void fsync_fd_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw CheckpointError("checkpoint: fsync " + what + " failed: " +
                          std::strerror(err));
  }
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." :
                          slash == 0 ? "/" : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  // Directory fsync is best-effort: some filesystems refuse O_DIRECTORY
  // fsync; the data file itself is already durable.
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw CheckpointError("checkpoint: cannot open " + tmp + ": " +
                          std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = ::write(fd, data.data() + off, data.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw CheckpointError("checkpoint: write " + tmp + " failed: " +
                            std::strerror(err));
    }
    off += static_cast<std::size_t>(w);
  }
  fsync_fd_or_throw(fd, tmp);
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw CheckpointError("checkpoint: rename " + tmp + " -> " + path +
                          " failed: " + std::strerror(errno));
  }
  fsync_parent_dir(path);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw CheckpointError("checkpoint: cannot read " + path + ": " +
                          std::strerror(errno));
  }
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw CheckpointError("checkpoint: read " + path + " failed");
  return data;
}

// --- stream-backed frame I/O ---------------------------------------------

namespace {

constexpr std::uint32_t kFrameMagic = 0x5055464d;  // "PUFM"
constexpr std::uint32_t kWireVersion = 1;

// Reads exactly n bytes. Returns the number read: n on success, 0 on EOF
// before the first byte, anything else means the stream died mid-read.
std::size_t read_exact(int fd, char* dst, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, dst + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw CheckpointError(std::string("frame: read failed: ") +
                            std::strerror(errno));
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void write_all(int fd, const char* src, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, src + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw CheckpointError(std::string("frame: write failed: ") +
                            std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

std::string encode_frame(std::uint32_t type, const std::string& body) {
  BinaryWriter w;
  w.put_u32(kFrameMagic);
  w.put_u32(kWireVersion);
  w.put_u32(type);
  w.put_u64(body.size());
  w.put_bytes(body.data(), body.size());
  w.put_u64(fnv1a_bytes(body.data(), body.size()));
  return w.take();
}

void write_frame_fd(int fd, std::uint32_t type, const std::string& body) {
  const std::string bytes = encode_frame(type, body);
  write_all(fd, bytes.data(), bytes.size());
}

bool read_frame_fd(int fd, WireFrame* out) {
  // Header: magic, version, type, body size.
  char header[20];
  const std::size_t got = read_exact(fd, header, sizeof(header));
  if (got == 0) return false;  // clean EOF between frames
  if (got < sizeof(header)) {
    throw CheckpointError("frame: truncated header (" + std::to_string(got) +
                          " of " + std::to_string(sizeof(header)) + " bytes)");
  }
  // BinaryReader wants an owning std::string; decode the fixed-size
  // header in place instead.
  const auto u32_at = [&](int off) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(header[off + i]))
           << (8 * i);
    }
    return v;
  };
  const auto u64_at = [&](int off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(header[off + i]))
           << (8 * i);
    }
    return v;
  };
  if (u32_at(0) != kFrameMagic) {
    throw CheckpointError("frame: bad magic (stream out of sync)");
  }
  const std::uint32_t version = u32_at(4);
  if (version != kWireVersion) {
    throw CheckpointError("frame: unsupported wire version " +
                          std::to_string(version));
  }
  const std::uint32_t type = u32_at(8);
  const std::uint64_t body_size = u64_at(12);
  if (body_size > kMaxFrameBody) {
    throw CheckpointError("frame: body size " + std::to_string(body_size) +
                          " exceeds limit (corrupt length prefix?)");
  }

  std::string body(static_cast<std::size_t>(body_size), '\0');
  if (body_size > 0 &&
      read_exact(fd, body.data(), body.size()) != body.size()) {
    throw CheckpointError("frame: truncated body");
  }
  char trailer[8];
  if (read_exact(fd, trailer, sizeof(trailer)) != sizeof(trailer)) {
    throw CheckpointError("frame: truncated checksum trailer");
  }
  std::uint64_t want = 0;
  for (int i = 0; i < 8; ++i) {
    want |= static_cast<std::uint64_t>(static_cast<unsigned char>(trailer[i]))
            << (8 * i);
  }
  const std::uint64_t got_sum = fnv1a_bytes(body.data(), body.size());
  if (want != got_sum) {
    throw CheckpointError("frame: body checksum mismatch");
  }
  out->type = type;
  out->body = std::move(body);
  return true;
}

void FrameBuffer::append(const char* data, std::size_t n) {
  // Compact the consumed prefix before it grows past the useful window.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (1u << 16))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

bool FrameBuffer::next(WireFrame* out) {
  constexpr std::size_t kHeader = 20;  // magic, version, type, body size
  if (buffered() < kHeader) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;
  const auto u32_at = [&](int off) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[off + i]) << (8 * i);
    }
    return v;
  };
  const auto u64_at = [&](int off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[off + i]) << (8 * i);
    }
    return v;
  };
  if (u32_at(0) != kFrameMagic) {
    throw CheckpointError("frame: bad magic (stream out of sync)");
  }
  const std::uint32_t version = u32_at(4);
  if (version != kWireVersion) {
    throw CheckpointError("frame: unsupported wire version " +
                          std::to_string(version));
  }
  const std::uint64_t body_size = u64_at(12);
  if (body_size > kMaxFrameBody) {
    throw CheckpointError("frame: body size " + std::to_string(body_size) +
                          " exceeds limit (corrupt length prefix?)");
  }
  const std::size_t total =
      kHeader + static_cast<std::size_t>(body_size) + 8;
  if (buffered() < total) return false;
  std::string body(buf_, pos_ + kHeader, static_cast<std::size_t>(body_size));
  std::uint64_t want = 0;
  {
    const unsigned char* t = p + kHeader + body_size;
    for (int i = 0; i < 8; ++i) {
      want |= static_cast<std::uint64_t>(t[i]) << (8 * i);
    }
  }
  if (want != fnv1a_bytes(body.data(), body.size())) {
    throw CheckpointError("frame: body checksum mismatch");
  }
  out->type = u32_at(8);
  out->body = std::move(body);
  pos_ += total;
  return true;
}

// --- design structure key ------------------------------------------------

std::uint64_t design_structure_key(const Design& design) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a_f64(h, design.die.xlo);
  h = fnv1a_f64(h, design.die.ylo);
  h = fnv1a_f64(h, design.die.xhi);
  h = fnv1a_f64(h, design.die.yhi);
  h = fnv1a_u64(h, design.rows.size());
  for (const Row& r : design.rows) {
    h = fnv1a_f64(h, r.y);
    h = fnv1a_f64(h, r.x_lo);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.num_sites));
    h = fnv1a_f64(h, r.site_width);
    h = fnv1a_f64(h, r.height);
  }
  h = fnv1a_u64(h, design.cells.size());
  for (const Cell& c : design.cells) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(c.kind));
    h = fnv1a_f64(h, c.width);
    h = fnv1a_f64(h, c.height);
    h = fnv1a_u64(h, c.pins.size());
  }
  h = fnv1a_u64(h, design.pins.size());
  for (const Pin& p : design.pins) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(p.cell));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(p.net));
    h = fnv1a_f64(h, p.dx);
    h = fnv1a_f64(h, p.dy);
  }
  h = fnv1a_u64(h, design.nets.size());
  for (const Net& n : design.nets) {
    h = fnv1a_u64(h, n.pins.size());
    h = fnv1a_f64(h, n.weight);
  }
  return h;
}

std::uint64_t position_checksum(const Design& design) {
  std::uint64_t h = fnv1a_bytes(nullptr, 0);
  for (const Cell& c : design.cells) {
    h = fnv1a_f64(h, c.x);
    h = fnv1a_f64(h, c.y);
  }
  return h;
}

// --- snapshot encode/decode ----------------------------------------------

std::string encode_snapshot(const FlowSnapshot& snap) {
  BinaryWriter payload;
  payload.put_u64(snap.design_key);
  payload.put_u64(snap.prefix_key);
  payload.put_f64(snap.fork_overflow);
  payload.put_f64_vec(snap.x);
  payload.put_f64_vec(snap.y);
  payload.put_f64_vec(snap.padding);
  payload.put_u64(snap.rng_key);
  payload.put_u64(snap.rng_counter);

  BinaryWriter out;
  out.put_u32(kSnapshotMagic);
  out.put_u32(kSnapshotVersion);
  const std::string& body = payload.buffer();
  out.put_u64(body.size());
  out.put_bytes(body.data(), body.size());
  out.put_u64(fnv1a_bytes(body.data(), body.size()));
  return out.take();
}

FlowSnapshot decode_snapshot(const std::string& bytes) {
  BinaryReader r(bytes);
  if (r.get_u32() != kSnapshotMagic) {
    throw CheckpointError("checkpoint: bad magic (not a PUFFER snapshot)");
  }
  const std::uint32_t version = r.get_u32();
  if (version != kSnapshotVersion) {
    throw CheckpointError("checkpoint: unsupported snapshot version " +
                          std::to_string(version));
  }
  const std::uint64_t body_size = r.get_u64();
  if (body_size > r.remaining()) {
    throw CheckpointError("checkpoint: truncated snapshot body");
  }
  const std::string body = bytes.substr(r.pos(),
                                        static_cast<std::size_t>(body_size));
  const std::string trailer = bytes.substr(
      r.pos() + static_cast<std::size_t>(body_size));
  BinaryReader tr(trailer);
  const std::uint64_t want = tr.get_u64();
  const std::uint64_t got = fnv1a_bytes(body.data(), body.size());
  if (want != got) {
    throw CheckpointError("checkpoint: payload checksum mismatch");
  }

  BinaryReader p(body);
  FlowSnapshot snap;
  snap.design_key = p.get_u64();
  snap.prefix_key = p.get_u64();
  snap.fork_overflow = p.get_f64();
  snap.x = p.get_f64_vec();
  snap.y = p.get_f64_vec();
  snap.padding = p.get_f64_vec();
  snap.rng_key = p.get_u64();
  snap.rng_counter = p.get_u64();
  if (snap.x.size() != snap.y.size()) {
    throw CheckpointError("checkpoint: x/y position arrays disagree");
  }
  return snap;
}

void save_snapshot(const std::string& path, const FlowSnapshot& snap) {
  atomic_write_file(path, encode_snapshot(snap));
}

FlowSnapshot load_snapshot(const std::string& path) {
  return decode_snapshot(read_file(path));
}

}  // namespace puffer
