// Append-only, crash-safe line log: the storage under the exploration
// trial journal (orchestrate/trial_journal.h) and the serve daemon's
// request log (serve/request_log.h), plus the record format both write
// (LogLine and the log_* field readers below).
//
// One record per '\n'-terminated line, flushed and fsync'd per append, so
// a crash at any point leaves at worst a torn final line. The tolerant
// loader keeps the records before the first line its caller rejects (or
// an unterminated final line) and drops that tail. Opening a log cuts
// such a tail off first, so records appended after a restart are never
// glued onto a torn line and lost with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace puffer {

class AppendLog {
 public:
  // Receives one line without its '\n'; returns false to reject it.
  using LineFn = std::function<bool(const std::string& line)>;

  // Opens `path` for appending (created when missing). When the file ends
  // in a tail that load() with `accept` drops, the file is first truncated
  // to the accepted prefix and the truncation fsync'd; an intact log opens
  // without either. Throws CheckpointError on I/O failure.
  AppendLog(std::string path, const LineFn& accept);
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  // Appends `line` and a '\n', flushes and fsyncs. Throws CheckpointError
  // on I/O failure.
  void append(const std::string& line);

  // True while the log holds no record (a new file, or one whose first
  // line was torn).
  bool empty() const { return bytes_ == 0; }
  const std::string& path() const { return path_; }

  // Feeds every complete line of `path` to `take`, in order, until `take`
  // rejects one; that line and everything after it are the torn tail. A
  // missing file has no lines. Returns the byte length of the accepted
  // prefix.
  static std::size_t load(const std::string& path, const LineFn& take);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t bytes_ = 0;  // length of the accepted prefix plus appends
};

// Builds one record line: a flat JSON object whose first field is
// "type". Keys are unique and values are never nested. Doubles that must
// replay exactly are stored as their IEEE-754 bit patterns in hex.
class LogLine {
 public:
  explicit LogLine(const char* type) { str("type", type); }

  // A string value. '"', '\\', '\n' and '\r' are written as '_', so the
  // line needs no escapes and stays one line.
  LogLine& str(const char* key, const std::string& value);
  template <typename Int>
  LogLine& num(const char* key, Int value) {
    static_assert(std::is_integral_v<Int>);
    field(key);
    text_ += std::to_string(value);
    return *this;
  }
  LogLine& hex(const char* key, std::uint64_t value);  // "%016x" string
  LogLine& bits(const char* key, double value);  // hex of the bit pattern
  LogLine& approx(const char* key, double value);  // %.6g, for readers
  LogLine& bits_array(const char* key, const std::vector<double>& values);

  // The finished line, without a '\n'.
  std::string line() const { return text_ + "}"; }

 private:
  void field(const char* key);

  std::string text_ = "{";
};

// Field readers for lines LogLine wrote. Each returns false when the key
// is missing or its value does not parse, which log loaders treat as a
// torn record.
//
// The "type" of a whole line (one that opens with '{' and closes with
// '}').
bool log_type(const std::string& line, std::string* out);
bool log_str(const std::string& line, const char* key, std::string* out);
bool log_int(const std::string& line, const char* key, int* out);
bool log_u64(const std::string& line, const char* key, std::uint64_t* out);
bool log_hex(const std::string& line, const char* key, std::uint64_t* out);
bool log_bits(const std::string& line, const char* key, double* out);
bool log_bits_array(const std::string& line, const char* key,
                    std::vector<double>* out);

}  // namespace puffer
