// Append-only, crash-safe trial journal for exploration sessions.
//
// One JSONL record per line in an io/append_log.h log, fsync'd per
// append, so a SIGKILL at any point leaves at worst one torn final line
// -- which the tolerant loader drops and reopening cuts off. A resumed
// exploration replays the journal: completed trials
// substitute their recorded losses for re-evaluation (verified against
// the re-derived candidate's assignment hash), incomplete trials re-run
// from the shared checkpoint.
//
// Exact-replay encoding: every double that feeds back into the
// deterministic exploration state (losses, per-rung overflow trails) is
// stored as its IEEE-754 bit pattern in hex, not as decimal text, so a
// resume folds bit-identical values. Human-readable approximations ride
// along where useful.
//
// Record schema (see docs/architecture.md for the full field tables):
//   {"type":"header","version":1,"design_key":"..hex..", ...}
//   {"type":"checkpoint","path":"...","prefix_key":"..hex.."}
//   {"type":"trial_start","trial":N,"akey":"..hex.."}
//   {"type":"trial_complete","trial":N,"akey":"..hex..",
//    "loss_bits":"..hex..","pruned":0,"prune_round":-1,
//    "checksum":"..hex..","rounds":["..hex..",...]}
//   {"type":"explore_complete","best_trial":N,"best_loss_bits":"..hex..",
//    "best_checksum":"..hex.."}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/append_log.h"

namespace puffer {

struct JournalRecord {
  enum class Type {
    kHeader,
    kCheckpoint,
    kTrialStart,
    kTrialComplete,
    kExploreComplete,
  };
  Type type = Type::kHeader;

  // header
  std::uint64_t design_key = 0;
  std::uint64_t prefix_key = 0;
  std::uint64_t space_key = 0;  // hash of the explored parameter space
  std::uint64_t seed = 0;
  int trials = 0;
  int batch_size = 0;

  // checkpoint
  std::string path;

  // trial_start / trial_complete
  int trial = -1;
  std::uint64_t akey = 0;  // assignment hash (bit patterns of all values)
  double loss = 0.0;
  bool pruned = false;
  int prune_round = -1;
  std::uint64_t checksum = 0;          // final-position checksum (0 if pruned)
  std::vector<double> rounds;          // per-rung estimated overflow trail

  // explore_complete
  int best_trial = -1;
  double best_loss = 0.0;
  std::uint64_t best_checksum = 0;
};

class TrialJournal {
 public:
  // Opens `path` for appending (created when missing; a torn tail is cut
  // off first); throws CheckpointError when the file cannot be opened.
  explicit TrialJournal(const std::string& path);

  // Serializes, appends one line, flushes and fsyncs. Throws
  // CheckpointError on I/O failure.
  void append(const JournalRecord& rec);

  const std::string& path() const { return log_.path(); }

  // One-record codec (exposed for tests).
  static std::string encode(const JournalRecord& rec);
  // Returns false for a malformed/torn line (never throws).
  static bool decode(const std::string& line, JournalRecord* out);

  // Tolerant loader: parses records until the first malformed line (a
  // crash tears at most the final one) and ignores everything after it.
  // A missing file yields an empty vector.
  static std::vector<JournalRecord> load(const std::string& path);

 private:
  AppendLog log_;
};

}  // namespace puffer
