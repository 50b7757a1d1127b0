#include "serve/request_log.h"

#include <unordered_map>

namespace puffer {
namespace {

constexpr int kLogVersion = 1;

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
  switch (rec.type) {
    case RequestLogRecord::Type::kHeader:
      return LogLine("header").num("version", kLogVersion).line();
    case RequestLogRecord::Type::kSubmit:
      return LogLine("submit")
          .num("sid", rec.session_id)
          .str("job", rec.job_file)
          .str("name", rec.job_name)
          .line();
    case RequestLogRecord::Type::kStart:
      return LogLine("start").num("sid", rec.session_id).line();
    case RequestLogRecord::Type::kCancel:
      return LogLine("cancel").num("sid", rec.session_id).line();
    case RequestLogRecord::Type::kFinish:
      return LogLine("finish")
          .num("sid", rec.session_id)
          .num("state", static_cast<int>(rec.state))
          .hex("checksum", rec.checksum)
          .bits("hpwl_bits", rec.hpwl_legal)
          .bits("runtime_bits", rec.runtime_s)
          .num("rounds", rec.rounds)
          .str("result", rec.result_file)
          .str("msg", rec.message)
          .line();
  }
  return std::string();
}

bool RequestLog::decode(const std::string& line, RequestLogRecord* out) {
  std::string type;
  if (!log_type(line, &type)) return false;
  RequestLogRecord rec;
  if (type == "header") {
    rec.type = RequestLogRecord::Type::kHeader;
    int version = 0;
    if (!log_int(line, "version", &version) || version != kLogVersion) {
      return false;
    }
  } else {
    if (!log_u64(line, "sid", &rec.session_id)) return false;
    if (type == "submit") {
      rec.type = RequestLogRecord::Type::kSubmit;
      if (!log_str(line, "job", &rec.job_file)) return false;
      if (!log_str(line, "name", &rec.job_name)) return false;
    } else if (type == "start") {
      rec.type = RequestLogRecord::Type::kStart;
    } else if (type == "cancel") {
      rec.type = RequestLogRecord::Type::kCancel;
    } else if (type == "finish") {
      rec.type = RequestLogRecord::Type::kFinish;
      int state = 0;
      if (!log_int(line, "state", &state) || state < 0 ||
          state > static_cast<int>(SessionState::kFailed)) {
        return false;
      }
      rec.state = static_cast<std::uint8_t>(state);
      if (!log_hex(line, "checksum", &rec.checksum)) return false;
      if (!log_bits(line, "hpwl_bits", &rec.hpwl_legal)) return false;
      if (!log_bits(line, "runtime_bits", &rec.runtime_s)) return false;
      if (!log_int(line, "rounds", &rec.rounds)) return false;
      if (!log_str(line, "result", &rec.result_file)) return false;
      if (!log_str(line, "msg", &rec.message)) return false;
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
