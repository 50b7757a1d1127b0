#include "io/append_log.h"

#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "io/checkpoint.h"

namespace puffer {

AppendLog::AppendLog(std::string path, const LineFn& accept)
    : path_(std::move(path)) {
  bytes_ = load(path_, accept);
  file_ = std::fopen(path_.c_str(), "ab");
  if (!file_) {
    throw CheckpointError("log: cannot open " + path_ + ": " +
                          std::strerror(errno));
  }
  const int fd = ::fileno(file_);
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    throw CheckpointError("log: cannot size " + path_ + ": " +
                          std::strerror(errno));
  }
  if (static_cast<std::size_t>(size) > bytes_ &&
      (::ftruncate(fd, static_cast<off_t>(bytes_)) != 0 || ::fsync(fd) != 0)) {
    throw CheckpointError("log: cannot cut the torn tail of " + path_ + ": " +
                          std::strerror(errno));
  }
}

AppendLog::~AppendLog() {
  if (file_) std::fclose(file_);
}

void AppendLog::append(const std::string& line) {
  const std::string rec = line + "\n";
  if (std::fwrite(rec.data(), 1, rec.size(), file_) != rec.size()) {
    throw CheckpointError("log: short write to " + path_);
  }
  if (std::fflush(file_) != 0) {
    throw CheckpointError("log: flush failed for " + path_);
  }
  if (::fsync(::fileno(file_)) != 0) {
    throw CheckpointError("log: fsync failed for " + path_ + ": " +
                          std::strerror(errno));
  }
  bytes_ += rec.size();
}

std::size_t AppendLog::load(const std::string& path, const LineFn& take) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);

  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    // An unterminated final line is a write that never finished.
    if (nl == std::string::npos) break;
    if (!take(data.substr(pos, nl - pos))) break;
    pos = nl + 1;
  }
  return pos;
}

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double double_of(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool parse_u64(const std::string& raw, int base, std::uint64_t* out) {
  // strtoull would also take leading blanks and a sign.
  if (raw.empty() || !std::isxdigit(static_cast<unsigned char>(raw[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, base);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

void LogLine::field(const char* key) {
  if (text_.size() > 1) text_ += ',';
  text_ += '"';
  text_ += key;
  text_ += "\":";
}

LogLine& LogLine::str(const char* key, const std::string& value) {
  field(key);
  text_ += '"';
  for (const char c : value) {
    text_ += (c == '"' || c == '\\' || c == '\n' || c == '\r') ? '_' : c;
  }
  text_ += '"';
  return *this;
}

LogLine& LogLine::hex(const char* key, std::uint64_t value) {
  field(key);
  text_ += '"' + hex16(value) + '"';
  return *this;
}

LogLine& LogLine::bits(const char* key, double value) {
  return hex(key, bits_of(value));
}

LogLine& LogLine::approx(const char* key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  field(key);
  text_ += buf;
  return *this;
}

LogLine& LogLine::bits_array(const char* key,
                             const std::vector<double>& values) {
  field(key);
  text_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text_ += ',';
    text_ += '"' + hex16(bits_of(values[i])) + '"';
  }
  text_ += ']';
  return *this;
}

// The characters between the quotes of a string value, else everything
// up to the next ',', '}' or ']'.
bool log_str(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t p = at + needle.size();
  if (p >= line.size()) return false;
  if (line[p] == '"') {
    const std::size_t end = line.find('"', p + 1);
    if (end == std::string::npos) return false;
    *out = line.substr(p + 1, end - p - 1);
    return true;
  }
  std::size_t end = p;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']') {
    ++end;
  }
  if (end == line.size()) return false;
  *out = line.substr(p, end - p);
  return true;
}

bool log_type(const std::string& line, std::string* out) {
  return !line.empty() && line.front() == '{' && line.back() == '}' &&
         log_str(line, "type", out);
}

bool log_int(const std::string& line, const char* key, int* out) {
  std::string raw;
  if (!log_str(line, key, &raw) || raw.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool log_u64(const std::string& line, const char* key, std::uint64_t* out) {
  std::string raw;
  return log_str(line, key, &raw) && parse_u64(raw, 10, out);
}

bool log_hex(const std::string& line, const char* key, std::uint64_t* out) {
  std::string raw;
  return log_str(line, key, &raw) && parse_u64(raw, 16, out);
}

bool log_bits(const std::string& line, const char* key, double* out) {
  std::uint64_t bits = 0;
  if (!log_hex(line, key, &bits)) return false;
  *out = double_of(bits);
  return true;
}

bool log_bits_array(const std::string& line, const char* key,
                    std::vector<double>* out) {
  const std::string needle = std::string("\"") + key + "\":[";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t p = at + needle.size();
  out->clear();
  while (p < line.size() && line[p] != ']') {
    if (line[p] == ',') {
      ++p;
      continue;
    }
    if (line[p] != '"') return false;
    const std::size_t end = line.find('"', p + 1);
    if (end == std::string::npos) return false;
    std::uint64_t bits = 0;
    if (!parse_u64(line.substr(p + 1, end - p - 1), 16, &bits)) return false;
    out->push_back(double_of(bits));
    p = end + 1;
  }
  return p < line.size();  // must have hit the ']'
}

}  // namespace puffer
