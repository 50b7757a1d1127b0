#include "orchestrate/trial_journal.h"

namespace puffer {
namespace {

constexpr int kJournalVersion = 1;

// Indexed by JournalRecord::Type.
constexpr const char* kTypes[] = {"header", "checkpoint", "trial_start",
                                  "trial_complete", "explore_complete"};

// The one layout of every record type: LogLine runs it to encode,
// LogLineReader to decode.
template <class Log, class Rec>
void fields(Log& log, Rec& rec) {
  using Type = JournalRecord::Type;
  log.tag("type", rec.type, kTypes);
  switch (rec.type) {
    case Type::kHeader: {
      int version = kJournalVersion;
      log.num("version", version);
      log.check(version == kJournalVersion)
          .hex("design_key", rec.design_key)
          .hex("prefix_key", rec.prefix_key)
          .hex("space_key", rec.space_key)
          .hex("seed", rec.seed)
          .num("trials", rec.trials)
          .num("batch_size", rec.batch_size);
      break;
    }
    case Type::kCheckpoint:
      log.str("path", rec.path).hex("prefix_key", rec.prefix_key);
      break;
    case Type::kTrialStart:
      log.num("trial", rec.trial).hex("akey", rec.akey);
      break;
    case Type::kTrialComplete:
      log.num("trial", rec.trial)
          .hex("akey", rec.akey)
          .bits("loss_bits", rec.loss)
          .approx("loss", rec.loss)
          .flag("pruned", rec.pruned)
          .num("prune_round", rec.prune_round)
          .hex("checksum", rec.checksum)
          .bits_array("rounds", rec.rounds);
      break;
    case Type::kExploreComplete:
      log.num("best_trial", rec.best_trial)
          .bits("best_loss_bits", rec.best_loss)
          .approx("best_loss", rec.best_loss)
          .hex("best_checksum", rec.best_checksum);
      break;
  }
}

}  // namespace

TrialJournal::TrialJournal(const std::string& path)
    : log_(path, [](const std::string& line) {
        JournalRecord rec;
        return decode(line, &rec);
      }) {}

void TrialJournal::append(const JournalRecord& rec) {
  log_.append(encode(rec));
}

std::string TrialJournal::encode(const JournalRecord& rec) {
  LogLine line;
  fields(line, rec);
  return line.line();
}

bool TrialJournal::decode(const std::string& line, JournalRecord* out) {
  LogLineReader in(line);
  JournalRecord rec;
  fields(in, rec);
  if (in.ok()) *out = std::move(rec);
  return in.ok();
}

std::vector<JournalRecord> TrialJournal::load(const std::string& path) {
  std::vector<JournalRecord> records;
  AppendLog::load(path, [&records](const std::string& line) {
    JournalRecord rec;
    if (!decode(line, &rec)) return false;
    records.push_back(std::move(rec));
    return true;
  });
  return records;
}

}  // namespace puffer
