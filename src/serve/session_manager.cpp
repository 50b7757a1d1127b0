#include "serve/session_manager.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logger.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/config_io.h"
#include "io/checkpoint.h"
#include "io/design_codec.h"
#include "serve/telemetry.h"

namespace puffer {

namespace {

constexpr const char* kTag = "serve";

}  // namespace

ServeConfig validate_serve_config(ServeConfig config) {
  if (config.spool_dir.empty()) {
    throw std::invalid_argument("ServeConfig.spool_dir must be set");
  }
  if (config.max_running < 1) {
    throw std::invalid_argument("ServeConfig.max_running must be positive");
  }
  if (config.max_queued < 1) {
    throw std::invalid_argument("ServeConfig.max_queued must be positive");
  }
  if (config.per_conn_inflight < 1) {
    throw std::invalid_argument(
        "ServeConfig.per_conn_inflight must be positive");
  }
  return config;
}

struct ServeSessionManager::Impl {
  ServeSession pub;
  std::string raw_body;     // SubmitMsg body (empty once terminal)
  std::string job_file;     // spool file holding raw_body
  std::string result_file;  // spool file holding the encoded ResultMsg
  std::atomic<bool> cancel{false};
  std::thread thread;
};

ServeSessionManager::ServeSessionManager(ServeConfig config,
                                         std::function<void()> wake)
    : config_(validate_serve_config(std::move(config))),
      wake_(std::move(wake)) {
  ensure_dir(config_.spool_dir);
  lease_want_ = std::max(1, par::num_threads() / config_.max_running);

  const std::string log_path = spool_path("requests.jsonl");
  const std::vector<RecoveredSession> recovered =
      replay_request_log(RequestLog::load(log_path));
  log_ = std::make_unique<RequestLog>(log_path);
  for (const RecoveredSession& rec : recovered) {
    admit_recovered(rec);
  }
  if (!recovered.empty()) {
    PUFFER_LOG_INFO(kTag, "recovered %zu session(s) from %s",
                    recovered.size(), log_path.c_str());
  }
}

ServeSessionManager::~ServeSessionManager() {
  draining_ = true;
  for (auto& [id, impl] : sessions_) {
    (void)id;
    impl->cancel.store(true);
  }
  for (auto& [id, impl] : sessions_) {
    (void)id;
    if (impl->thread.joinable()) impl->thread.join();
  }
}

std::string ServeSessionManager::spool_path(const std::string& file) const {
  return config_.spool_dir + "/" + file;
}

void ServeSessionManager::admit_recovered(const RecoveredSession& rec) {
  next_id_ = std::max(next_id_, rec.session_id + 1);
  auto impl = std::make_unique<Impl>();
  impl->pub.id = rec.session_id;
  impl->pub.job_name = rec.job_name;
  impl->job_file = rec.job_file;
  if (rec.finished) {
    const std::uint8_t s = rec.summary.state;
    impl->pub.state = s <= static_cast<std::uint8_t>(SessionState::kFailed)
                          ? static_cast<SessionState>(s)
                          : SessionState::kFailed;
    impl->pub.summary = rec.summary;
    impl->result_file = rec.result_file;
  } else if (rec.cancelled) {
    // Cancelled before the finish record landed: finalize it now.
    impl->pub.state = SessionState::kCancelled;
    impl->pub.summary.state =
        static_cast<std::uint8_t>(SessionState::kCancelled);
    RequestLogRecord fin;
    fin.type = RequestLogRecord::Type::kFinish;
    fin.session_id = rec.session_id;
    fin.state = impl->pub.summary.state;
    log_->append(fin);
  } else {
    // Queued or mid-run at the crash: the flow is deterministic, so a
    // re-run reproduces the result bit-identically. Re-admit.
    try {
      impl->raw_body = read_file(spool_path(rec.job_file));
      impl->pub.state = SessionState::kQueued;
      queue_.push_back(rec.session_id);
    } catch (const CheckpointError& e) {
      impl->pub.state = SessionState::kFailed;
      impl->pub.summary.state =
          static_cast<std::uint8_t>(SessionState::kFailed);
      impl->pub.summary.message =
          std::string("recovery: job blob unreadable: ") + e.what();
      RequestLogRecord fin;
      fin.type = RequestLogRecord::Type::kFinish;
      fin.session_id = rec.session_id;
      fin.state = impl->pub.summary.state;
      fin.message = impl->pub.summary.message;
      log_->append(fin);
    }
  }
  sessions_[rec.session_id] = std::move(impl);
}

ServeSessionManager::AdmitResult ServeSessionManager::submit(
    const std::string& raw_submit_body) {
  AdmitResult res;
  if (draining_) {
    res.reason = RejectReason::kDraining;
    res.message = "daemon is draining";
    return res;
  }
  if (static_cast<int>(queue_.size()) >= config_.max_queued) {
    res.reason = RejectReason::kQueueFull;
    res.message = "admission queue is full (" +
                  std::to_string(config_.max_queued) + ")";
    return res;
  }

  SubmitMsg msg;
  try {
    msg = decode_submit(raw_submit_body);
    (void)decode_design(msg.design_blob);  // reject garbage at the door
  } catch (const CheckpointError& e) {
    res.reason = RejectReason::kBadRequest;
    res.message = e.what();
    return res;
  }

  const std::uint64_t sid = next_id_++;
  auto impl = std::make_unique<Impl>();
  impl->pub.id = sid;
  impl->pub.job_name = msg.job_name;
  impl->pub.state = SessionState::kQueued;
  impl->raw_body = raw_submit_body;
  impl->job_file = "job_" + std::to_string(sid) + ".bin";
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    atomic_write_file(spool_path(impl->job_file), raw_submit_body);
    RequestLogRecord rec;
    rec.type = RequestLogRecord::Type::kSubmit;
    rec.session_id = sid;
    rec.job_file = impl->job_file;
    rec.job_name = msg.job_name;
    log_->append(rec);
  }
  queue_.push_back(sid);
  sessions_[sid] = std::move(impl);

  res.accepted = true;
  res.session_id = sid;
  res.state = SessionState::kQueued;
  res.queue_depth = static_cast<std::int32_t>(queue_.size()) - 1 + running_;
  PUFFER_LOG_INFO(kTag, "session %llu admitted (%s), %d ahead",
                  static_cast<unsigned long long>(sid), msg.job_name.c_str(),
                  res.queue_depth);
  return res;
}

bool ServeSessionManager::cancel(std::uint64_t session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return false;
  Impl& impl = *it->second;
  if (session_terminal(impl.pub.state)) return true;  // already settled
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    RequestLogRecord rec;
    rec.type = RequestLogRecord::Type::kCancel;
    rec.session_id = session_id;
    log_->append(rec);
  }
  if (impl.pub.state == SessionState::kQueued) {
    impl.pub.state = SessionState::kCancelled;
    impl.pub.summary.state =
        static_cast<std::uint8_t>(SessionState::kCancelled);
    impl.raw_body.clear();
    queue_.erase(std::remove(queue_.begin(), queue_.end(), session_id),
                 queue_.end());
    std::lock_guard<std::mutex> lock(log_mu_);
    RequestLogRecord fin;
    fin.type = RequestLogRecord::Type::kFinish;
    fin.session_id = session_id;
    fin.state = impl.pub.summary.state;
    log_->append(fin);
  } else {
    // Running: flag it; the progress hook aborts at the next
    // padding-round boundary and the finish event settles the state.
    impl.cancel.store(true);
  }
  return true;
}

void ServeSessionManager::pump() {
  while (running_ < config_.max_running && !queue_.empty()) {
    const std::uint64_t sid = queue_.front();
    queue_.pop_front();
    const auto it = sessions_.find(sid);
    if (it == sessions_.end() ||
        it->second->pub.state != SessionState::kQueued) {
      continue;  // cancelled while queued
    }
    // A start logs nothing: recovery re-admits queued and running
    // sessions alike, so no failed write can strand the session here.
    Impl& impl = *it->second;
    impl.pub.state = SessionState::kRunning;
    ++running_;
    impl.thread = std::thread(&ServeSessionManager::run_session, this, &impl);
  }
}

void ServeSessionManager::run_session(Impl* impl) {
  const std::uint64_t sid = impl->pub.id;
  Timer timer;
  SessionEvent fin;
  fin.kind = SessionEvent::Kind::kFinished;
  fin.session_id = sid;
  fin.summary.state = static_cast<std::uint8_t>(SessionState::kFailed);

  try {
    const SubmitMsg msg = decode_submit(impl->raw_body);
    Design design = decode_design(msg.design_blob);
    // Unknown keys / bad values in the override text fail the session
    // (admission only vets the netlist; strategy errors surface here).
    PufferConfig cfg = config_from_text(msg.config_text, config_.base_config);

    // The whole session computes under this lease: max_running sessions
    // split the global worker budget instead of stacking full pools.
    par::WorkerLease lease(lease_want_);

    PufferFlow flow(design, cfg);
    TelemetryRound prev;
    bool have_prev = false;
    flow.set_progress_hook([&](const FlowProgress& p) {
      SessionEvent ev;
      ev.kind = SessionEvent::Kind::kTelemetry;
      ev.session_id = sid;
      ev.round = make_round(p, have_prev ? &prev : nullptr);
      prev = ev.round;
      have_prev = true;
      push_event(std::move(ev));
      return !impl->cancel.load();
    });
    const FlowMetrics metrics = flow.run();

    fin.summary.runtime_s = timer.elapsed_seconds();
    fin.summary.padding_rounds = metrics.padding_rounds;
    if (metrics.aborted_early) {
      fin.summary.state = static_cast<std::uint8_t>(SessionState::kCancelled);
    } else {
      ResultMsg result;
      result.session_id = sid;
      result.checksum = position_checksum(design);
      result.hpwl_legal = metrics.hpwl_legal;
      result.x.reserve(design.cells.size());
      result.y.reserve(design.cells.size());
      for (const Cell& c : design.cells) {
        result.x.push_back(c.x);
        result.y.push_back(c.y);
      }
      // Spooled before the poll thread learns of the session's end, which
      // then serves every fetch from this file. A failed write fails the
      // session, never the daemon.
      const std::string file = "result_" + std::to_string(sid) + ".bin";
      {
        std::lock_guard<std::mutex> lock(log_mu_);
        atomic_write_file(spool_path(file), encode_result(result));
      }
      impl->result_file = file;
      fin.summary.state = static_cast<std::uint8_t>(SessionState::kDone);
      fin.summary.checksum = result.checksum;
      fin.summary.hpwl_legal = result.hpwl_legal;
    }
  } catch (const std::exception& e) {
    fin.summary.state = static_cast<std::uint8_t>(SessionState::kFailed);
    fin.summary.message = e.what();
    fin.summary.runtime_s = timer.elapsed_seconds();
  }

  // Log the finish before the poll thread learns of it, so a crash right
  // after the event can always be replayed.
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    RequestLogRecord rec;
    rec.type = RequestLogRecord::Type::kFinish;
    rec.session_id = sid;
    rec.state = fin.summary.state;
    rec.checksum = fin.summary.checksum;
    rec.hpwl_legal = fin.summary.hpwl_legal;
    rec.runtime_s = fin.summary.runtime_s;
    rec.rounds = fin.summary.padding_rounds;
    rec.message = fin.summary.message;
    rec.result_file = impl->result_file;
    try {
      log_->append(rec);
    } catch (const CheckpointError& e) {
      PUFFER_LOG_WARN(kTag,
                      "session %llu: finish record not logged (%s); the "
                      "session runs again after a restart",
                      static_cast<unsigned long long>(sid), e.what());
    }
  }
  push_event(std::move(fin));
}

void ServeSessionManager::push_event(SessionEvent event) {
  {
    std::lock_guard<std::mutex> lock(ev_mu_);
    events_.push_back(std::move(event));
  }
  if (wake_) wake_();
}

std::vector<SessionEvent> ServeSessionManager::drain_events() {
  std::lock_guard<std::mutex> lock(ev_mu_);
  std::vector<SessionEvent> out(events_.begin(), events_.end());
  events_.clear();
  return out;
}

const ServeSession* ServeSessionManager::apply(const SessionEvent& event) {
  const auto it = sessions_.find(event.session_id);
  if (it == sessions_.end()) return nullptr;
  Impl& impl = *it->second;
  if (event.kind == SessionEvent::Kind::kTelemetry) {
    if (!session_terminal(impl.pub.state)) {
      impl.pub.history.push_back(event.round);
    }
    return &impl.pub;
  }
  // Finished: the runner pushed this as its last action, so the join is
  // (nearly) instant.
  impl.pub.state = static_cast<SessionState>(event.summary.state);
  impl.pub.summary = event.summary;
  impl.raw_body.clear();
  if (impl.thread.joinable()) impl.thread.join();
  --running_;
  PUFFER_LOG_INFO(kTag, "session %llu finished: %s",
                  static_cast<unsigned long long>(impl.pub.id),
                  session_state_name(impl.pub.state));
  return &impl.pub;
}

const ServeSession* ServeSessionManager::find(
    std::uint64_t session_id) const {
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : &it->second->pub;
}

SnapshotMsg ServeSessionManager::snapshot(std::uint64_t session_id) const {
  const ServeSession* s = find(session_id);
  SnapshotMsg m;
  if (!s) return m;
  m.session_id = s->id;
  m.state = static_cast<std::uint8_t>(s->state);
  m.history = s->history;
  if (session_terminal(s->state)) {
    m.has_summary = 1;
    m.summary = s->summary;
  }
  return m;
}

bool ServeSessionManager::result_body(std::uint64_t session_id,
                                      std::string* out) const {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return false;
  const Impl& impl = *it->second;
  if (impl.pub.state != SessionState::kDone || impl.result_file.empty()) {
    return false;
  }
  try {
    *out = read_file(spool_path(impl.result_file));
  } catch (const CheckpointError&) {
    return false;
  }
  return true;
}

StatusMsg ServeSessionManager::status(std::uint64_t session_id) const {
  StatusMsg m;
  for (const auto& [id, impl] : sessions_) {
    (void)id;
    switch (impl->pub.state) {
      case SessionState::kQueued:
        ++m.queued;
        break;
      case SessionState::kRunning:
        ++m.running;
        break;
      case SessionState::kDone:
        ++m.done;
        break;
      case SessionState::kCancelled:
        ++m.cancelled;
        break;
      case SessionState::kFailed:
        ++m.failed;
        break;
    }
  }
  m.max_running = config_.max_running;
  m.max_queued = config_.max_queued;
  m.draining = draining_ ? 1 : 0;
  if (session_id != 0) {
    const ServeSession* s = find(session_id);
    if (s) {
      m.has_session = 1;
      m.session_id = s->id;
      m.session_state = static_cast<std::uint8_t>(s->state);
      m.session_rounds = static_cast<std::int32_t>(s->history.size());
    }
  }
  return m;
}

bool ServeSessionManager::idle() const {
  if (running_ > 0) return false;
  for (const auto& [id, impl] : sessions_) {
    (void)id;
    if (!session_terminal(impl->pub.state)) return false;
  }
  return true;
}

}  // namespace puffer
