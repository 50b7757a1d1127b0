#include "io/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace puffer {
namespace {

// Frame type of a stored FlowSnapshot: "PS", layout 3. A new layout
// takes a new type, so a reader never misreads an older one.
constexpr std::uint32_t kSnapshotFrame = 0x50530003;

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

void ensure_dir(const std::string& path) {
  if (path.empty()) return;
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  if (errno == ENOENT) {
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos && slash > 0) {
      ensure_dir(path.substr(0, slash));
      if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
    }
  }
  throw CheckpointError("cannot create directory " + path + ": " +
                        std::strerror(errno));
}

// --- stream-backed frame I/O ---------------------------------------------

namespace {

constexpr std::uint32_t kFrameMagic = 0x5055464d;  // "PUFM"
constexpr std::uint32_t kWireVersion = 1;
// magic, version, type, body size | body | fnv1a(body)
constexpr std::size_t kFrameHeader = 20;
constexpr std::size_t kFrameTrailer = 8;

// Little-endian unsigned integer of `n` bytes at `p`.
std::uint64_t le_bytes(const char* p, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
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

std::string decode_frame(const std::string& bytes, std::uint32_t type,
                         const char* what) {
  FrameBuffer in;
  in.append(bytes.data(), bytes.size());
  WireFrame frame;
  if (!in.next(&frame)) {
    throw CheckpointError(std::string(what) + ": truncated frame");
  }
  if (in.buffered() != 0) {
    throw CheckpointError(std::string(what) + ": trailing bytes after frame");
  }
  if (frame.type != type) {
    throw CheckpointError(std::string(what) + ": frame type " +
                          std::to_string(frame.type) + ", expected " +
                          std::to_string(type));
  }
  return std::move(frame.body);
}

void write_frame_fd(int fd, std::uint32_t type, const std::string& body) {
  const std::string bytes = encode_frame(type, body);
  write_all(fd, bytes.data(), bytes.size());
}

bool read_frame_fd(int fd, WireFrame* out) {
  // Reads only the bytes the frame still misses, so the stream stays
  // positioned at the next frame; FrameBuffer does all the validation.
  FrameBuffer in;
  char buf[1 << 16];
  while (!in.next(out)) {
    const ssize_t r = ::read(fd, buf, std::min(in.missing(), sizeof(buf)));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw CheckpointError(std::string("frame: read failed: ") +
                            std::strerror(errno));
    }
    if (r == 0) {
      if (in.buffered() == 0) return false;  // clean EOF between frames
      throw CheckpointError("frame: truncated after " +
                            std::to_string(in.buffered()) + " bytes");
    }
    in.append(buf, static_cast<std::size_t>(r));
  }
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

std::size_t FrameBuffer::frame_size() const {
  if (buffered() < kFrameHeader) return 0;
  const char* p = buf_.data() + pos_;
  if (le_bytes(p, 4) != kFrameMagic) {
    throw CheckpointError("frame: bad magic (stream out of sync)");
  }
  const std::uint64_t version = le_bytes(p + 4, 4);
  if (version != kWireVersion) {
    throw CheckpointError("frame: unsupported wire version " +
                          std::to_string(version));
  }
  const std::uint64_t body_size = le_bytes(p + 12, 8);
  if (body_size > kMaxFrameBody) {
    throw CheckpointError("frame: body size " + std::to_string(body_size) +
                          " exceeds limit (corrupt length prefix?)");
  }
  return kFrameHeader + static_cast<std::size_t>(body_size) + kFrameTrailer;
}

std::size_t FrameBuffer::missing() const {
  const std::size_t size = frame_size();
  if (size == 0) return kFrameHeader - buffered();
  return size > buffered() ? size - buffered() : 0;
}

bool FrameBuffer::next(WireFrame* out) {
  const std::size_t size = frame_size();
  if (size == 0 || buffered() < size) return false;
  const char* p = buf_.data() + pos_;
  const std::size_t body_size = size - kFrameHeader - kFrameTrailer;
  std::string body(p + kFrameHeader, body_size);
  if (le_bytes(p + kFrameHeader + body_size, 8) !=
      fnv1a_bytes(body.data(), body.size())) {
    throw CheckpointError("frame: body checksum mismatch");
  }
  out->type = static_cast<std::uint32_t>(le_bytes(p + 8, 4));
  out->body = std::move(body);
  pos_ += size;
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
  BinaryWriter w;
  w.put_u64(snap.design_key);
  w.put_u64(snap.prefix_key);
  w.put_f64_vec(snap.x);
  w.put_f64_vec(snap.y);
  return encode_frame(kSnapshotFrame, w.buffer());
}

FlowSnapshot decode_snapshot(const std::string& bytes) {
  const std::string body = decode_frame(bytes, kSnapshotFrame, "snapshot");
  BinaryReader r(body);
  FlowSnapshot snap;
  snap.design_key = r.get_u64();
  snap.prefix_key = r.get_u64();
  snap.x = r.get_f64_vec();
  snap.y = r.get_f64_vec();
  if (!r.at_end()) {
    throw CheckpointError("snapshot: trailing bytes after payload");
  }
  if (snap.x.size() != snap.y.size()) {
    throw CheckpointError("snapshot: x/y position arrays disagree");
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
