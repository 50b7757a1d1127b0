#include "serve/request_log.h"

#include <unordered_map>

namespace puffer {
namespace {

constexpr int kLogVersion = 1;

// Indexed by RequestLogRecord::Type.
constexpr const char* kTypes[] = {"header", "submit", "start", "cancel",
                                  "finish"};

// The one layout of every record type: LogLine runs it to encode,
// LogLineReader to decode.
template <class Log, class Rec>
void fields(Log& log, Rec& rec) {
  using Type = RequestLogRecord::Type;
  log.tag("type", rec.type, kTypes);
  if (rec.type == Type::kHeader) {
    int version = kLogVersion;
    log.num("version", version);
    log.check(version == kLogVersion);
    return;
  }
  log.num("sid", rec.session_id);
  if (rec.type == Type::kSubmit) {
    log.str("job", rec.job_file).str("name", rec.job_name);
  } else if (rec.type == Type::kFinish) {
    log.num("state", rec.state);
    log.check(rec.state <= static_cast<std::uint8_t>(SessionState::kFailed))
        .hex("checksum", rec.checksum)
        .bits("hpwl_bits", rec.hpwl_legal)
        .bits("runtime_bits", rec.runtime_s)
        .num("rounds", rec.rounds)
        .str("result", rec.result_file)
        .str("msg", rec.message);
  }
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
  LogLine line;
  fields(line, rec);
  return line.line();
}

bool RequestLog::decode(const std::string& line, RequestLogRecord* out) {
  LogLineReader in(line);
  RequestLogRecord rec;
  fields(in, rec);
  if (in.ok()) *out = std::move(rec);
  return in.ok();
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
