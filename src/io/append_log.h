// Append-only, crash-safe line log: the storage under the exploration
// trial journal (orchestrate/trial_journal.h) and the serve daemon's
// request log (serve/request_log.h).
//
// One record per '\n'-terminated line, flushed and fsync'd per append, so
// a crash at any point leaves at worst a torn final line. The tolerant
// loader keeps the records before the first line its caller rejects (or
// an unterminated final line) and drops that tail. Opening a log cuts
// such a tail off first, so records appended after a restart are never
// glued onto a torn line and lost with it.
#pragma once

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>

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

}  // namespace puffer
