// Append-only, crash-safe line log: the storage under the exploration
// trial journal (orchestrate/trial_journal.h) and the serve daemon's
// request log (serve/request_log.h), plus the record format both write
// and read (LogLine and its twin LogLineReader below).
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
#include <limits>
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
//
// LogLineReader reads a line back with the same calls, so each log
// states a record's layout once, as a walk that both run:
//
//   template <class Log, class Rec>
//   void fields(Log& log, Rec& rec) {
//     log.tag("type", rec.type, kTypes).num("sid", rec.session_id);
//   }
class LogLine {
 public:
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
  LogLine& flag(const char* key, bool value) { return num(key, value ? 1 : 0); }
  LogLine& hex(const char* key, std::uint64_t value);  // "%016x" string
  LogLine& bits(const char* key, double value);  // hex of the bit pattern
  LogLine& approx(const char* key, double value);  // %.6g, not read back
  LogLine& bits_array(const char* key, const std::vector<double>& values);
  // An enum written as its entry in `names`.
  template <class E, std::size_t N>
  LogLine& tag(const char* key, E value, const char* const (&names)[N]) {
    return str(key, names[static_cast<std::size_t>(value)]);
  }
  // A condition the read fields must meet; nothing to write.
  LogLine& check(bool /*ok*/) { return *this; }

  // The finished line, without a '\n'.
  std::string line() const { return text_ + "}"; }

 private:
  void field(const char* key);

  std::string text_ = "{";
};

// Reads the fields of one line LogLine wrote. A line that is not one
// braced object, a missing key, a value that does not parse or fit, or a
// failed check clears ok(), which log loaders treat as a torn record;
// every later call then leaves its value alone.
class LogLineReader {
 public:
  explicit LogLineReader(const std::string& line);

  LogLineReader& str(const char* key, std::string& value);
  template <typename Int>
  LogLineReader& num(const char* key, Int& value) {
    static_assert(std::is_integral_v<Int>);
    if constexpr (std::is_unsigned_v<Int> && sizeof(Int) == 8) {
      std::uint64_t v = 0;
      if (parse_unsigned(key, 10, &v)) value = v;
    } else {
      long long v = 0;
      if (parse_signed(key, std::numeric_limits<Int>::min(),
                       std::numeric_limits<Int>::max(), &v)) {
        value = static_cast<Int>(v);
      }
    }
    return *this;
  }
  LogLineReader& flag(const char* key, bool& value);
  LogLineReader& hex(const char* key, std::uint64_t& value);
  LogLineReader& bits(const char* key, double& value);
  LogLineReader& approx(const char* /*key*/, double /*value*/) {
    return *this;
  }
  LogLineReader& bits_array(const char* key, std::vector<double>& values);
  template <class E, std::size_t N>
  LogLineReader& tag(const char* key, E& value,
                     const char* const (&names)[N]) {
    std::string name;
    str(key, name);
    std::size_t i = 0;
    while (i < N && name != names[i]) ++i;
    if (check(i < N).ok()) value = static_cast<E>(i);
    return *this;
  }
  LogLineReader& check(bool ok) {
    ok_ = ok_ && ok;
    return *this;
  }

  bool ok() const { return ok_; }

 private:
  // The characters between the quotes of a string value, else everything
  // up to the next ',', '}' or ']'.
  bool raw(const char* key, std::string* out);
  bool parse_unsigned(const char* key, int base, std::uint64_t* out);
  bool parse_signed(const char* key, long long lo, long long hi,
                    long long* out);

  const std::string& line_;
  bool ok_;
};

}  // namespace puffer
