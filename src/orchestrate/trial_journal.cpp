#include "orchestrate/trial_journal.h"

namespace puffer {
namespace {

constexpr int kJournalVersion = 1;

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
  switch (rec.type) {
    case JournalRecord::Type::kHeader:
      return LogLine("header")
          .num("version", kJournalVersion)
          .hex("design_key", rec.design_key)
          .hex("prefix_key", rec.prefix_key)
          .hex("space_key", rec.space_key)
          .hex("seed", rec.seed)
          .num("trials", rec.trials)
          .num("batch_size", rec.batch_size)
          .line();
    case JournalRecord::Type::kCheckpoint:
      return LogLine("checkpoint")
          .str("path", rec.path)
          .hex("prefix_key", rec.prefix_key)
          .line();
    case JournalRecord::Type::kTrialStart:
      return LogLine("trial_start")
          .num("trial", rec.trial)
          .hex("akey", rec.akey)
          .line();
    case JournalRecord::Type::kTrialComplete:
      return LogLine("trial_complete")
          .num("trial", rec.trial)
          .hex("akey", rec.akey)
          .bits("loss_bits", rec.loss)
          .approx("loss", rec.loss)
          .num("pruned", rec.pruned ? 1 : 0)
          .num("prune_round", rec.prune_round)
          .hex("checksum", rec.checksum)
          .bits_array("rounds", rec.rounds)
          .line();
    case JournalRecord::Type::kExploreComplete:
      return LogLine("explore_complete")
          .num("best_trial", rec.best_trial)
          .bits("best_loss_bits", rec.best_loss)
          .approx("best_loss", rec.best_loss)
          .hex("best_checksum", rec.best_checksum)
          .line();
  }
  return std::string();
}

bool TrialJournal::decode(const std::string& line, JournalRecord* out) {
  std::string type;
  if (!log_type(line, &type)) return false;
  JournalRecord rec;
  if (type == "header") {
    rec.type = JournalRecord::Type::kHeader;
    int version = 0;
    if (!log_int(line, "version", &version) || version != kJournalVersion) {
      return false;
    }
    if (!log_hex(line, "design_key", &rec.design_key)) return false;
    if (!log_hex(line, "prefix_key", &rec.prefix_key)) return false;
    if (!log_hex(line, "space_key", &rec.space_key)) return false;
    if (!log_hex(line, "seed", &rec.seed)) return false;
    if (!log_int(line, "trials", &rec.trials)) return false;
    if (!log_int(line, "batch_size", &rec.batch_size)) return false;
  } else if (type == "checkpoint") {
    rec.type = JournalRecord::Type::kCheckpoint;
    if (!log_str(line, "path", &rec.path)) return false;
    if (!log_hex(line, "prefix_key", &rec.prefix_key)) return false;
  } else if (type == "trial_start") {
    rec.type = JournalRecord::Type::kTrialStart;
    if (!log_int(line, "trial", &rec.trial)) return false;
    if (!log_hex(line, "akey", &rec.akey)) return false;
  } else if (type == "trial_complete") {
    rec.type = JournalRecord::Type::kTrialComplete;
    if (!log_int(line, "trial", &rec.trial)) return false;
    if (!log_hex(line, "akey", &rec.akey)) return false;
    if (!log_bits(line, "loss_bits", &rec.loss)) return false;
    int pruned = 0;
    if (!log_int(line, "pruned", &pruned)) return false;
    rec.pruned = pruned != 0;
    if (!log_int(line, "prune_round", &rec.prune_round)) return false;
    if (!log_hex(line, "checksum", &rec.checksum)) return false;
    if (!log_bits_array(line, "rounds", &rec.rounds)) return false;
  } else if (type == "explore_complete") {
    rec.type = JournalRecord::Type::kExploreComplete;
    if (!log_int(line, "best_trial", &rec.best_trial)) return false;
    if (!log_bits(line, "best_loss_bits", &rec.best_loss)) return false;
    if (!log_hex(line, "best_checksum", &rec.best_checksum)) return false;
  } else {
    return false;
  }
  *out = rec;
  return true;
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
