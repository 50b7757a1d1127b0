#include "io/append_log.h"

#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
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

}  // namespace puffer
