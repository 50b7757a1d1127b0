#include "orchestrate/trial_journal.h"

#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

namespace puffer {
namespace {

constexpr int kJournalVersion = 1;

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// --- minimal flat-object JSON field extraction ---------------------------
// The journal only ever parses lines it wrote itself: one flat object per
// line, keys unique, strings without escapes. A full JSON parser would be
// dead weight; these helpers fail (return false) on anything unexpected,
// which the tolerant loader treats as a torn record.

bool find_raw(const std::string& line, const std::string& key,
              std::string* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t p = at + needle.size();
  while (p < line.size() && line[p] == ' ') ++p;
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

bool get_hex(const std::string& line, const std::string& key,
             std::uint64_t* out) {
  std::string raw;
  if (!find_raw(line, key, &raw) || raw.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(raw.c_str(), &end, 16);
  if (errno != 0 || end == raw.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool get_int(const std::string& line, const std::string& key, int* out) {
  std::string raw;
  if (!find_raw(line, key, &raw) || raw.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw.c_str(), &end, 10);
  if (errno != 0 || end == raw.c_str() || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

bool get_string(const std::string& line, const std::string& key,
                std::string* out) {
  return find_raw(line, key, out);
}

// Parses "rounds":["<hex>","<hex>",...] (possibly empty).
bool get_rounds(const std::string& line, std::vector<double>* out) {
  const std::string needle = "\"rounds\":[";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t p = at + needle.size();
  out->clear();
  while (p < line.size() && line[p] != ']') {
    if (line[p] == ',' || line[p] == ' ') {
      ++p;
      continue;
    }
    if (line[p] != '"') return false;
    const std::size_t end = line.find('"', p + 1);
    if (end == std::string::npos) return false;
    const std::string hex = line.substr(p + 1, end - p - 1);
    char* stop = nullptr;
    errno = 0;
    const std::uint64_t bits = std::strtoull(hex.c_str(), &stop, 16);
    if (errno != 0 || stop == hex.c_str() || *stop != '\0') return false;
    out->push_back(bits_double(bits));
    p = end + 1;
  }
  return p < line.size();  // must have hit the ']'
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
  char buf[256];
  std::string s;
  switch (rec.type) {
    case JournalRecord::Type::kHeader:
      std::snprintf(buf, sizeof(buf),
                    "{\"type\":\"header\",\"version\":%d,\"design_key\":"
                    "\"%s\",\"prefix_key\":\"%s\",\"space_key\":\"%s\","
                    "\"seed\":\"%s\",\"trials\":%d,\"batch_size\":%d}",
                    kJournalVersion, hex_u64(rec.design_key).c_str(),
                    hex_u64(rec.prefix_key).c_str(),
                    hex_u64(rec.space_key).c_str(), hex_u64(rec.seed).c_str(),
                    rec.trials, rec.batch_size);
      s = buf;
      break;
    case JournalRecord::Type::kCheckpoint:
      s = "{\"type\":\"checkpoint\",\"path\":\"" + rec.path +
          "\",\"prefix_key\":\"" + hex_u64(rec.prefix_key) + "\"}";
      break;
    case JournalRecord::Type::kTrialStart:
      std::snprintf(buf, sizeof(buf),
                    "{\"type\":\"trial_start\",\"trial\":%d,\"akey\":\"%s\"}",
                    rec.trial, hex_u64(rec.akey).c_str());
      s = buf;
      break;
    case JournalRecord::Type::kTrialComplete: {
      std::snprintf(
          buf, sizeof(buf),
          "{\"type\":\"trial_complete\",\"trial\":%d,\"akey\":\"%s\","
          "\"loss_bits\":\"%s\",\"loss\":%.6g,\"pruned\":%d,"
          "\"prune_round\":%d,\"checksum\":\"%s\",\"rounds\":[",
          rec.trial, hex_u64(rec.akey).c_str(),
          hex_u64(double_bits(rec.loss)).c_str(), rec.loss,
          rec.pruned ? 1 : 0, rec.prune_round, hex_u64(rec.checksum).c_str());
      s = buf;
      for (std::size_t i = 0; i < rec.rounds.size(); ++i) {
        if (i > 0) s += ",";
        s += "\"" + hex_u64(double_bits(rec.rounds[i])) + "\"";
      }
      s += "]}";
      break;
    }
    case JournalRecord::Type::kExploreComplete:
      std::snprintf(buf, sizeof(buf),
                    "{\"type\":\"explore_complete\",\"best_trial\":%d,"
                    "\"best_loss_bits\":\"%s\",\"best_loss\":%.6g,"
                    "\"best_checksum\":\"%s\"}",
                    rec.best_trial,
                    hex_u64(double_bits(rec.best_loss)).c_str(), rec.best_loss,
                    hex_u64(rec.best_checksum).c_str());
      s = buf;
      break;
  }
  return s;
}

bool TrialJournal::decode(const std::string& line, JournalRecord* out) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  std::string type;
  if (!get_string(line, "type", &type)) return false;
  JournalRecord rec;
  if (type == "header") {
    rec.type = JournalRecord::Type::kHeader;
    int version = 0;
    if (!get_int(line, "version", &version) || version != kJournalVersion) {
      return false;
    }
    if (!get_hex(line, "design_key", &rec.design_key)) return false;
    if (!get_hex(line, "prefix_key", &rec.prefix_key)) return false;
    if (!get_hex(line, "space_key", &rec.space_key)) return false;
    if (!get_hex(line, "seed", &rec.seed)) return false;
    if (!get_int(line, "trials", &rec.trials)) return false;
    if (!get_int(line, "batch_size", &rec.batch_size)) return false;
  } else if (type == "checkpoint") {
    rec.type = JournalRecord::Type::kCheckpoint;
    if (!get_string(line, "path", &rec.path)) return false;
    if (!get_hex(line, "prefix_key", &rec.prefix_key)) return false;
  } else if (type == "trial_start") {
    rec.type = JournalRecord::Type::kTrialStart;
    if (!get_int(line, "trial", &rec.trial)) return false;
    if (!get_hex(line, "akey", &rec.akey)) return false;
  } else if (type == "trial_complete") {
    rec.type = JournalRecord::Type::kTrialComplete;
    if (!get_int(line, "trial", &rec.trial)) return false;
    if (!get_hex(line, "akey", &rec.akey)) return false;
    std::uint64_t bits = 0;
    if (!get_hex(line, "loss_bits", &bits)) return false;
    rec.loss = bits_double(bits);
    int pruned = 0;
    if (!get_int(line, "pruned", &pruned)) return false;
    rec.pruned = pruned != 0;
    if (!get_int(line, "prune_round", &rec.prune_round)) return false;
    if (!get_hex(line, "checksum", &rec.checksum)) return false;
    if (!get_rounds(line, &rec.rounds)) return false;
  } else if (type == "explore_complete") {
    rec.type = JournalRecord::Type::kExploreComplete;
    if (!get_int(line, "best_trial", &rec.best_trial)) return false;
    std::uint64_t bits = 0;
    if (!get_hex(line, "best_loss_bits", &bits)) return false;
    rec.best_loss = bits_double(bits);
    if (!get_hex(line, "best_checksum", &rec.best_checksum)) return false;
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
