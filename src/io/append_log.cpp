#include "io/append_log.h"

#include <sys/types.h>
#include <unistd.h>

#include <bit>
#include <cctype>
#include <cerrno>
#include <cinttypes>
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
  return hex(key, std::bit_cast<std::uint64_t>(value));
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
    text_ += '"' + hex16(std::bit_cast<std::uint64_t>(values[i])) + '"';
  }
  text_ += ']';
  return *this;
}

LogLineReader::LogLineReader(const std::string& line)
    : line_(line),
      ok_(!line.empty() && line.front() == '{' && line.back() == '}') {}

bool LogLineReader::raw(const char* key, std::string* out) {
  if (!ok_) return false;
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line_.find(needle);
  std::size_t p = at == std::string::npos ? line_.size() : at + needle.size();
  std::size_t end = p;
  if (p < line_.size() && line_[p] == '"') {
    end = line_.find('"', ++p);
  } else {
    while (end < line_.size() && line_[end] != ',' && line_[end] != '}' &&
           line_[end] != ']') {
      ++end;
    }
  }
  if (end == std::string::npos || end >= line_.size()) return ok_ = false;
  *out = line_.substr(p, end - p);
  return true;
}

bool LogLineReader::parse_unsigned(const char* key, int base,
                                   std::uint64_t* out) {
  std::string text;
  return raw(key, &text) && (ok_ = parse_u64(text, base, out));
}

bool LogLineReader::parse_signed(const char* key, long long lo, long long hi,
                                 long long* out) {
  std::string text;
  if (!raw(key, &text)) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  ok_ = !text.empty() && errno == 0 && *end == '\0' && v >= lo && v <= hi;
  if (ok_) *out = v;
  return ok_;
}

LogLineReader& LogLineReader::str(const char* key, std::string& value) {
  raw(key, &value);
  return *this;
}

LogLineReader& LogLineReader::flag(const char* key, bool& value) {
  int v = 0;
  if (num(key, v).ok()) value = v != 0;
  return *this;
}

LogLineReader& LogLineReader::hex(const char* key, std::uint64_t& value) {
  parse_unsigned(key, 16, &value);
  return *this;
}

LogLineReader& LogLineReader::bits(const char* key, double& value) {
  std::uint64_t v = 0;
  if (parse_unsigned(key, 16, &v)) value = std::bit_cast<double>(v);
  return *this;
}

LogLineReader& LogLineReader::bits_array(const char* key,
                                         std::vector<double>& values) {
  if (!ok_) return *this;
  const std::string needle = std::string("\"") + key + "\":[";
  const std::size_t at = line_.find(needle);
  if (at == std::string::npos) return check(false);
  std::size_t p = at + needle.size();
  values.clear();
  while (p < line_.size() && line_[p] != ']') {
    if (line_[p] == ',') {
      ++p;
      continue;
    }
    const std::size_t end = line_.find('"', p + 1);
    std::uint64_t v = 0;
    if (line_[p] != '"' || end == std::string::npos ||
        !parse_u64(line_.substr(p + 1, end - p - 1), 16, &v)) {
      return check(false);
    }
    values.push_back(std::bit_cast<double>(v));
    p = end + 1;
  }
  return check(p < line_.size());  // must have hit the ']'
}

}  // namespace puffer
