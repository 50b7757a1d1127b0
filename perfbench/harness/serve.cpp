// serve_small_jobs: a pufferd daemon driven by one closed-loop load
// generator. Each connection submits a pre-encoded job, subscribes to its
// telemetry, waits for Done, fetches the result and submits its next job.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "core/flow.h"
#include "io/checkpoint.h"
#include "io/design_codec.h"
#include "io/net.h"
#include "legal/legality.h"
#include "serve/client.h"

extern char** environ;

namespace perfbench {

namespace {

// Jobs replayed in process by a traced run to break the daemon's session
// time down by stage and kernel.
constexpr int kReplayJobs = 8;
// Set-up repetitions, half before and half after the load, so the
// set-up median spans the run; a daemon start takes milliseconds.
constexpr int kDaemonStarts = 20;
// The daemon keeps every finished session, so its memory grows with the
// jobs served: its peak RSS is read when this many jobs have completed
// (fewer than a slow run of --seconds 30 still completes).
constexpr int kRssJobs = 40;

class Daemon {
 public:
  Daemon(const RunOptions& opt, int index, int sessions, int queue);
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& address() const { return address_; }
  double startup_s() const { return startup_s_; }
  int pid() const { return pid_; }
  // SIGTERM (graceful drain) and reap; returns the exit status.
  int stop();

 private:
  // Connects as soon as the daemon listens and exchanges hellos; returns
  // the seconds since `t0`.
  double hello(Clock::time_point t0);

  std::string address_;
  double startup_s_ = 0.0;
  pid_t pid_ = -1;
};

Daemon::Daemon(const RunOptions& opt, int index, int sessions, int queue)
    : address_(opt.work + "/d" + std::to_string(index) + ".sock") {
  const std::vector<std::string> args = {
      opt.pufferd,     "--listen",
      address_,        "--spool",
      opt.work + "/spool" + std::to_string(index),
      "--max-running", std::to_string(sessions),
      "--max-queued",  std::to_string(queue),
      "--quiet"};
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  // Set-up time: from spawning the daemon until it answers a hello.
  const auto t0 = Clock::now();
  if (::posix_spawn(&pid_, opt.pufferd.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + opt.pufferd);
  }
  try {
    startup_s_ = hello(t0);
  } catch (...) {
    stop();
    throw;
  }
}

double Daemon::hello(Clock::time_point t0) {
  int fd = -1;
  while (fd < 0) {
    try {
      fd = puffer::connect_socket(address_);
    } catch (const puffer::CheckpointError&) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("pufferd exited during start-up");
      }
      if (seconds_since(t0) > 30.0) {
        throw std::runtime_error("pufferd did not listen within 30 s");
      }
      ::usleep(20);
    }
  }
  puffer::ClientHelloMsg hello;
  hello.client_name = "perfbench";
  puffer::WireFrame frame;
  bool answered = false;
  try {
    puffer::send_serve_msg(fd, puffer::ServeMsgType::kClientHello,
                           puffer::encode_client_hello(hello));
    answered = puffer::read_frame_fd(fd, &frame);
  } catch (const puffer::CheckpointError&) {
    answered = false;
  }
  const double startup_s = seconds_since(t0);
  ::close(fd);
  if (!answered ||
      frame.type != static_cast<std::uint32_t>(
                        puffer::ServeMsgType::kServerHello)) {
    throw std::runtime_error("pufferd did not answer the hello");
  }
  return startup_s;
}

int Daemon::stop() {
  if (pid_ < 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return status;
}

// One job's journey through the daemon, as the client saw it.
struct JobRecord {
  int job = -1;
  std::string error;  // non-empty: the job failed in the client
  bool rejected = false;
  Clock::time_point submit, ack, subscribed, done, fetched;
  std::vector<Clock::time_point> rounds;  // telemetry arrivals
  puffer::SessionSummary summary;
  puffer::ServeEvent result;
};

JobRecord run_job(puffer::ServeClient& client, int job,
                  const std::string& blob) {
  JobRecord rec;
  rec.job = job;
  puffer::SubmitMsg msg;
  msg.job_name = "job" + std::to_string(job);
  msg.design_blob = blob;
  rec.submit = Clock::now();
  const puffer::ServeEvent ack = client.submit(msg);
  rec.ack = Clock::now();
  if (ack.type != puffer::ServeMsgType::kSubmitAck) {
    rec.rejected = true;
    rec.error = "rejected: " + ack.rejected.message;
    return rec;
  }
  const std::uint64_t sid = ack.ack.session_id;
  const puffer::SnapshotMsg snap = client.subscribe(sid);
  rec.subscribed = Clock::now();
  if (!snap.history.empty()) rec.rounds.push_back(rec.subscribed);
  bool finished = snap.has_summary != 0;
  if (finished) rec.summary = snap.summary;
  while (!finished) {
    const puffer::ServeEvent ev = client.next_event();
    if (ev.type == puffer::ServeMsgType::kTelemetry &&
        ev.telemetry.session_id == sid) {
      rec.rounds.push_back(Clock::now());
    } else if (ev.type == puffer::ServeMsgType::kDone &&
               ev.done.session_id == sid) {
      rec.summary = ev.done.summary;
      finished = true;
    }
  }
  rec.done = Clock::now();
  rec.result = client.fetch(sid);
  rec.fetched = Clock::now();
  return rec;
}

// Checks one fetched result against its Done summary and the submitted
// design; returns the design with the result's positions applied.
std::string check_result(const JobRecord& rec, const std::string& blob,
                         bool corrupt, puffer::Design* design) {
  if (!rec.error.empty()) return rec.error;
  if (rec.summary.state !=
      static_cast<std::uint8_t>(puffer::SessionState::kDone)) {
    return "session ended " +
           std::string(puffer::session_state_name(
               static_cast<puffer::SessionState>(rec.summary.state))) +
           ": " + rec.summary.message;
  }
  if (rec.result.type != puffer::ServeMsgType::kResult) {
    return "fetch failed: " + rec.result.error.message;
  }
  *design = puffer::decode_design(blob);
  const puffer::ResultMsg& res = rec.result.result;
  if (res.x.size() != design->cells.size() ||
      res.y.size() != design->cells.size()) {
    return "result has the wrong number of cells";
  }
  for (std::size_t i = 0; i < design->cells.size(); ++i) {
    design->cells[i].x = res.x[i];
    design->cells[i].y = res.y[i];
  }
  if (corrupt) design->cells.front().x += design->tech.site_width;
  const std::uint64_t checksum = puffer::position_checksum(*design);
  if (checksum != rec.summary.checksum || checksum != res.checksum) {
    return "result positions do not hash to the Done checksum";
  }
  const puffer::LegalityReport legality = puffer::check_legality(*design);
  if (!legality.legal) return "illegal placement (" + legality.summary() + ")";
  return "";
}

}  // namespace

void run_serve(const RunOptions& opt, Tracer& tracer, RawResult& raw) {
  const std::vector<std::string> blobs = read_job_blobs(opt.inputs);
  if (blobs.empty()) throw std::runtime_error("no serve jobs in the inputs");
  const int sessions = concurrent_sessions();
  const int connections = puffer::par::num_threads();
  raw.info["daemon_sessions"] = std::to_string(sessions);
  raw.info["daemon_lease"] =
      std::to_string(puffer::par::num_threads() / sessions);
  raw.info["connections"] = std::to_string(connections);

  // Set-up: start the daemon several times; the last start before the
  // load serves it.
  std::unique_ptr<Daemon> daemon;
  const auto start_daemon = [&](int i) {
    if (daemon && daemon->stop() != 0) {
      raw.fail("pufferd did not drain cleanly");
    }
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt, i, sessions, connections);
    tracer.record("serve.daemon_start", t0, Clock::now(), 0, -1);
    raw.setup_s.push_back(daemon->startup_s());
  };
  for (int i = 0; i < kDaemonStarts / 2; ++i) start_daemon(i);

  std::vector<JobRecord> records;
  std::mutex records_mu;
  std::atomic<int> next_job{0};
  const auto loop_start = Clock::now();
  const auto deadline =
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c]() {
      std::unique_ptr<puffer::ServeClient> client;
      try {
        client = std::make_unique<puffer::ServeClient>(
            daemon->address(), 10.0, "perfbench-" + std::to_string(c));
      } catch (const std::exception& e) {
        JobRecord rec;
        rec.error = std::string("connect: ") + e.what();
        std::lock_guard<std::mutex> lock(records_mu);
        records.push_back(std::move(rec));
        return;
      }
      while (Clock::now() < deadline) {
        const int job = next_job++;
        JobRecord rec;
        try {
          rec = run_job(*client, job, blobs[job % blobs.size()]);
        } catch (const std::exception& e) {
          rec.job = job;
          rec.error = e.what();
        }
        const bool broken = !rec.error.empty() && !rec.rejected;
        std::lock_guard<std::mutex> lock(records_mu);
        records.push_back(std::move(rec));
        if (records.size() == kRssJobs) {
          raw.peak_rss_mb = peak_rss_mb(daemon->pid());
        }
        if (broken) return;  // the connection is unusable
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const auto loop_end = Clock::now();
  if (records.size() < kRssJobs) raw.peak_rss_mb = peak_rss_mb(daemon->pid());
  for (int i = kDaemonStarts / 2; i < kDaemonStarts; ++i) start_daemon(i);
  if (daemon->stop() != 0) raw.fail("pufferd did not drain cleanly");

  std::sort(records.begin(), records.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.job < b.job;
            });
  int rejected = 0;
  for (const JobRecord& rec : records) {
    ++raw.attempted;
    const std::string& blob =
        blobs[rec.job >= 0 ? rec.job % blobs.size() : 0];
    if (rec.rejected) ++rejected;
    puffer::Design design;
    const std::string error =
        check_result(rec, blob, opt.inject_fault && rec.job == 0, &design);
    if (!error.empty()) {
      raw.fail("serve job " + std::to_string(rec.job) + ": " + error);
      continue;
    }
    const std::uint64_t job_span = tracer.open();
    tracer.record("serve.submit", rec.submit, rec.ack, job_span, rec.job);
    tracer.record("serve.subscribe", rec.ack, rec.subscribed, job_span,
                  rec.job);
    const std::uint64_t wait_span = tracer.record(
        "serve.wait_done", rec.subscribed, rec.done, job_span, rec.job);
    tracer.record("serve.fetch", rec.done, rec.fetched, job_span, rec.job);
    tracer.close(job_span, "serve.job", rec.submit, rec.fetched, 0, rec.job);

    const double latency = seconds_between(rec.submit, rec.fetched);
    raw.latency_s.push_back(latency);
    raw.first_feedback_s.push_back(
        rec.rounds.empty() ? latency
                           : seconds_between(rec.submit, rec.rounds.front()));
    raw.sample("serve.ack_s", seconds_between(rec.submit, rec.ack));
    raw.sample("serve.session_s", rec.summary.runtime_s);
    raw.sample("serve.wait_s", seconds_between(rec.submit, rec.done) -
                                   rec.summary.runtime_s);
    raw.sample("serve.fetch_s", seconds_between(rec.done, rec.fetched));
    raw.sample("serve.telemetry_frames",
               static_cast<double>(rec.rounds.size()));
    raw.sample("serve.job_bytes", static_cast<double>(blob.size()));
    for (std::size_t r = 0; r + 1 < rec.rounds.size(); ++r) {
      tracer.record("core.round", rec.rounds[r], rec.rounds[r + 1], wait_span,
                    rec.job);
      raw.sample("core.round_s",
                 seconds_between(rec.rounds[r], rec.rounds[r + 1]));
    }

    const puffer::RouteResult route = puffer::evaluate_routability(design);
    raw.add_route(route);
    raw.routed_wl.push_back(route.wirelength);
    ++raw.placements;
  }
  raw.sample("serve.rejected", rejected);
  raw.busy_s = seconds_between(loop_start, loop_end);

  if (tracer.enabled()) {
    // The daemon's flows are opaque from outside; replay the first jobs
    // in process under the same worker lease to break a session down.
    puffer::par::WorkerLease lease(puffer::par::num_threads() / sessions);
    for (int j = 0; j < kReplayJobs && j < static_cast<int>(blobs.size());
         ++j) {
      puffer::Design design = puffer::decode_design(blobs[j]);
      puffer::PufferFlow flow(design, puffer::PufferConfig{});
      Span span(tracer, "core.flow", 0, -1 - j);
      raw.add_flow(flow.run());
    }
  }
}

}  // namespace perfbench
