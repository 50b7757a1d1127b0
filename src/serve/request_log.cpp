#include "serve/request_log.h"

#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

namespace puffer {
namespace {

constexpr int kLogVersion = 1;

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

// Minimal flat-object JSON field extraction -- the log only ever parses
// lines it wrote itself (same idiom and caveats as the trial journal).
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
  while (end < line.size() && line[end] != ',' && line[end] != '}') {
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

// Session labels and failure messages go through the log as JSON string
// values; anything that would break the flat-line format is replaced.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '"' || c == '\\' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

}  // namespace

RequestLog::RequestLog(const std::string& path)
    : log_(path, [](const std::string& line) {
        RequestLogRecord rec;
        return decode(line, &rec);
      }) {
  if (log_.empty()) {
    RequestLogRecord header;
    header.type = RequestLogRecord::Type::kHeader;
    append(header);
  }
}

void RequestLog::append(const RequestLogRecord& rec) {
  log_.append(encode(rec));
}

std::string RequestLog::encode(const RequestLogRecord& rec) {
  char buf[512];
  std::string s;
  switch (rec.type) {
    case RequestLogRecord::Type::kHeader:
      std::snprintf(buf, sizeof(buf), "{\"type\":\"header\",\"version\":%d}",
                    kLogVersion);
      s = buf;
      break;
    case RequestLogRecord::Type::kSubmit:
      std::snprintf(buf, sizeof(buf),
                    "{\"type\":\"submit\",\"sid\":%" PRIu64
                    ",\"job\":\"%s\",\"name\":\"%s\"}",
                    rec.session_id, sanitize(rec.job_file).c_str(),
                    sanitize(rec.job_name).c_str());
      s = buf;
      break;
    case RequestLogRecord::Type::kStart:
      std::snprintf(buf, sizeof(buf),
                    "{\"type\":\"start\",\"sid\":%" PRIu64 "}",
                    rec.session_id);
      s = buf;
      break;
    case RequestLogRecord::Type::kCancel:
      std::snprintf(buf, sizeof(buf),
                    "{\"type\":\"cancel\",\"sid\":%" PRIu64 "}",
                    rec.session_id);
      s = buf;
      break;
    case RequestLogRecord::Type::kFinish:
      std::snprintf(buf, sizeof(buf),
                    "{\"type\":\"finish\",\"sid\":%" PRIu64
                    ",\"state\":%d,\"checksum\":\"%s\",\"hpwl_bits\":\"%s\","
                    "\"runtime_bits\":\"%s\",\"rounds\":%d,\"result\":\"%s\","
                    "\"msg\":\"%s\"}",
                    rec.session_id, static_cast<int>(rec.state),
                    hex_u64(rec.checksum).c_str(),
                    hex_u64(double_bits(rec.hpwl_legal)).c_str(),
                    hex_u64(double_bits(rec.runtime_s)).c_str(), rec.rounds,
                    sanitize(rec.result_file).c_str(),
                    sanitize(rec.message).c_str());
      s = buf;
      break;
  }
  return s;
}

bool RequestLog::decode(const std::string& line, RequestLogRecord* out) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  std::string type;
  if (!get_string(line, "type", &type)) return false;
  RequestLogRecord rec;
  std::string sid_raw;
  if (type == "header") {
    rec.type = RequestLogRecord::Type::kHeader;
    int version = 0;
    if (!get_int(line, "version", &version) || version != kLogVersion) {
      return false;
    }
  } else {
    if (!find_raw(line, "sid", &sid_raw) || sid_raw.empty()) return false;
    char* end = nullptr;
    errno = 0;
    rec.session_id = std::strtoull(sid_raw.c_str(), &end, 10);
    if (errno != 0 || end == sid_raw.c_str() || *end != '\0') return false;
    if (type == "submit") {
      rec.type = RequestLogRecord::Type::kSubmit;
      if (!get_string(line, "job", &rec.job_file)) return false;
      if (!get_string(line, "name", &rec.job_name)) return false;
    } else if (type == "start") {
      rec.type = RequestLogRecord::Type::kStart;
    } else if (type == "cancel") {
      rec.type = RequestLogRecord::Type::kCancel;
    } else if (type == "finish") {
      rec.type = RequestLogRecord::Type::kFinish;
      int state = 0;
      if (!get_int(line, "state", &state) || state < 0 ||
          state > static_cast<int>(SessionState::kFailed)) {
        return false;
      }
      rec.state = static_cast<std::uint8_t>(state);
      std::uint64_t bits = 0;
      if (!get_hex(line, "checksum", &rec.checksum)) return false;
      if (!get_hex(line, "hpwl_bits", &bits)) return false;
      rec.hpwl_legal = bits_double(bits);
      if (!get_hex(line, "runtime_bits", &bits)) return false;
      rec.runtime_s = bits_double(bits);
      if (!get_int(line, "rounds", &rec.rounds)) return false;
      if (!get_string(line, "result", &rec.result_file)) return false;
      if (!get_string(line, "msg", &rec.message)) return false;
    } else {
      return false;
    }
  }
  *out = rec;
  return true;
}

std::vector<RequestLogRecord> RequestLog::load(const std::string& path) {
  std::vector<RequestLogRecord> records;
  AppendLog::load(path, [&records](const std::string& line) {
    RequestLogRecord rec;
    if (!decode(line, &rec)) return false;
    records.push_back(std::move(rec));
    return true;
  });
  return records;
}

std::vector<RecoveredSession> replay_request_log(
    const std::vector<RequestLogRecord>& records) {
  std::vector<RecoveredSession> sessions;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (const RequestLogRecord& rec : records) {
    if (rec.type == RequestLogRecord::Type::kHeader) continue;
    if (rec.type == RequestLogRecord::Type::kSubmit) {
      if (index.count(rec.session_id)) continue;  // torn log artifact
      index[rec.session_id] = sessions.size();
      RecoveredSession s;
      s.session_id = rec.session_id;
      s.job_file = rec.job_file;
      s.job_name = rec.job_name;
      sessions.push_back(s);
      continue;
    }
    const auto it = index.find(rec.session_id);
    if (it == index.end()) continue;  // record without a submit: ignore
    RecoveredSession& s = sessions[it->second];
    switch (rec.type) {
      case RequestLogRecord::Type::kStart:
        s.started = true;
        break;
      case RequestLogRecord::Type::kCancel:
        s.cancelled = true;
        break;
      case RequestLogRecord::Type::kFinish:
        s.finished = true;
        s.summary.state = rec.state;
        s.summary.checksum = rec.checksum;
        s.summary.hpwl_legal = rec.hpwl_legal;
        s.summary.runtime_s = rec.runtime_s;
        s.summary.padding_rounds = rec.rounds;
        s.summary.message = rec.message;
        s.result_file = rec.result_file;
        break;
      default:
        break;
    }
  }
  return sessions;
}

}  // namespace puffer
