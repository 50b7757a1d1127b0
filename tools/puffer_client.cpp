// puffer_client: command-line client for pufferd.
//
// Submits placement jobs, streams per-round telemetry, cancels,
// re-attaches and fetches results. The `direct` subcommand runs the
// identical flow in-process and prints the same final `checksum` line,
// so a daemon run can be checked for bit-identity against a local run
// with two invocations and a diff (scripts/daemon_smoke.sh does exactly
// that).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/logger.h"
#include "core/config_io.h"
#include "io/bookshelf.h"
#include "io/checkpoint.h"
#include "io/design_codec.h"
#include "io/synthetic.h"
#include "serve/client.h"

namespace {

const std::string kUsage =
    "usage: puffer_client ADDRESS COMMAND [options]\n"
    "       puffer_client direct JOB... [--config FILE]\n"
    "\n"
    "  ADDRESS is host:port (TCP) or a filesystem path (Unix socket).\n"
    "\n"
    "commands:\n"
    "  submit JOB...        submit and print the session id\n"
    "  run JOB...           submit, stream telemetry, fetch the result\n"
    "  subscribe SID        attach; print snapshot + telemetry until done\n"
    "  detach-probe SID     attach, then immediately detach (ack barrier)\n"
    "  cancel SID           request cancellation\n"
    "  fetch SID            fetch the final placement of a done session\n"
    "  status [SID]         daemon-wide (and per-session) counters\n"
    "  direct JOB...        run the flow in-process (no daemon), printing\n"
    "                       the same final checksum line as `run`\n"
    "\n"
    "job sources (JOB...):\n"
    "  --aux FILE           Bookshelf design (parsed locally, sent binary)\n"
    "  --bench NAME [--scale N] [--seed N]   synthetic Table-I design\n"
    "  --config FILE        strategy override text sent with the job\n"
    "  --name LABEL         job label for the daemon log\n"
    "  --help, --version\n";

using namespace puffer;

struct JobArgs {
  std::string aux, bench, config_path, name = "cli-job";
  int scale = 64;
  std::uint64_t seed = 0;
};

Design build_design(const JobArgs& job) {
  if (!job.aux.empty()) return read_bookshelf(job.aux);
  SyntheticSpec spec = table1_spec(job.bench, job.scale);
  if (job.seed != 0) spec.seed = job.seed;
  return generate_synthetic(spec);
}

std::string read_config_text(const JobArgs& job) {
  return job.config_path.empty() ? std::string() : read_file(job.config_path);
}

// Parses job-source options from argv[from..); exits on unknown args.
JobArgs parse_job(int argc, char** argv, int from) {
  JobArgs job;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(kUsage, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--aux") job.aux = next();
    else if (arg == "--bench") job.bench = next();
    else if (arg == "--scale") job.scale = std::atoi(next());
    else if (arg == "--seed") job.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--config") job.config_path = next();
    else if (arg == "--name") job.name = next();
    else usage_error(kUsage, "unknown option " + arg);
  }
  if (job.aux.empty() == job.bench.empty()) {
    usage_error(kUsage, "need exactly one of --aux / --bench");
  }
  return job;
}

void print_round(const TelemetryRound& t) {
  std::printf("round %d: overflow %.2f%% (%+.2f) hpwl %.6g (%+.3g)\n",
              t.round, t.est_overflow_pct, t.overflow_delta, t.hpwl,
              t.hpwl_delta);
}

void print_summary(const SessionSummary& s) {
  std::printf("state %s rounds %d runtime %.1fs",
              session_state_name(static_cast<SessionState>(s.state)),
              s.padding_rounds, s.runtime_s);
  if (s.state == static_cast<std::uint8_t>(SessionState::kDone)) {
    std::printf(" hpwl %.6g", s.hpwl_legal);
  }
  if (!s.message.empty()) std::printf(" (%s)", s.message.c_str());
  std::printf("\n");
  if (s.state == static_cast<std::uint8_t>(SessionState::kDone)) {
    std::printf("checksum 0x%016" PRIx64 "\n", s.checksum);
  }
}

std::uint64_t parse_sid(const char* s) {
  char* end = nullptr;
  const std::uint64_t sid = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || sid == 0) {
    usage_error(kUsage, std::string("bad session id '") + s + "'");
  }
  return sid;
}

int cmd_direct(int argc, char** argv, int from) {
  const JobArgs job = parse_job(argc, argv, from);
  // Round-trip through the binary codec so the in-process run sees the
  // byte-identical design a daemon would decode.
  Design design = decode_design(encode_design(build_design(job)));
  PufferConfig cfg = config_from_text(read_config_text(job), PufferConfig{});
  PufferFlow flow(design, cfg);
  const FlowMetrics metrics = flow.run();
  SessionSummary s;
  s.state = static_cast<std::uint8_t>(SessionState::kDone);
  s.checksum = position_checksum(design);
  s.hpwl_legal = metrics.hpwl_legal;
  s.runtime_s = metrics.runtime_s;
  s.padding_rounds = metrics.padding_rounds;
  print_summary(s);
  return 0;
}

SubmitMsg make_submit(const JobArgs& job) {
  SubmitMsg msg;
  msg.job_name = job.name;
  msg.design_blob = encode_design(build_design(job));
  msg.config_text = read_config_text(job);
  return msg;
}

// Submit helper shared by `submit` and `run`; exits 1 on rejection.
std::uint64_t do_submit(ServeClient& client, const JobArgs& job) {
  const ServeEvent reply = client.submit(make_submit(job));
  if (reply.type == ServeMsgType::kRejected) {
    std::fprintf(stderr, "rejected (%s): %s\n",
                 reject_reason_name(
                     static_cast<RejectReason>(reply.rejected.reason)),
                 reply.rejected.message.c_str());
    std::exit(1);
  }
  std::printf("session %" PRIu64 " %s (%d ahead)\n", reply.ack.session_id,
              session_state_name(static_cast<SessionState>(reply.ack.state)),
              reply.ack.queue_depth);
  return reply.ack.session_id;
}

// Attach + stream until the session settles; prints history then deltas.
SessionSummary follow(ServeClient& client, std::uint64_t sid) {
  const SnapshotMsg snap = client.subscribe(sid);
  for (const TelemetryRound& t : snap.history) print_round(t);
  if (snap.has_summary) return snap.summary;
  std::vector<TelemetryRound> rounds;
  const DoneMsg done = client.wait_done(sid, &rounds);
  for (const TelemetryRound& t : rounds) print_round(t);
  return done.summary;
}

int cmd_fetch(ServeClient& client, std::uint64_t sid) {
  const ServeEvent reply = client.fetch(sid);
  if (reply.type == ServeMsgType::kError) {
    std::fprintf(stderr, "fetch failed: %s\n", reply.error.message.c_str());
    return 1;
  }
  std::printf("cells %zu hpwl %.6g\n", reply.result.x.size(),
              reply.result.hpwl_legal);
  std::printf("checksum 0x%016" PRIx64 "\n", reply.result.checksum);
  return 0;
}

void print_status(const StatusMsg& s) {
  std::printf(
      "queued %d running %d done %d cancelled %d failed %d "
      "(max_running %d max_queued %d)%s\n",
      s.queued, s.running, s.done, s.cancelled, s.failed, s.max_running,
      s.max_queued, s.draining ? " draining" : "");
  if (s.has_session) {
    std::printf("session %" PRIu64 ": %s, %d round(s) streamed\n",
                s.session_id,
                session_state_name(
                    static_cast<SessionState>(s.session_state)),
                s.session_rounds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  handle_help_version(argc, argv, "puffer_client", kUsage);
  if (argc < 3) usage_error(kUsage);
  Logger::instance().set_level(LogLevel::kWarn);  // metrics go to stdout

  const std::string first = argv[1];
  try {
    if (first == "direct") {
      return cmd_direct(argc, argv, 2);
    }
    const std::string address = first;
    const std::string cmd = argv[2];
    if (cmd == "direct") usage_error(kUsage, "direct takes no ADDRESS");

    ServeClient client(address);
    if (cmd == "submit") {
      do_submit(client, parse_job(argc, argv, 3));
      return 0;
    }
    if (cmd == "run") {
      const std::uint64_t sid = do_submit(client, parse_job(argc, argv, 3));
      const SessionSummary summary = follow(client, sid);
      print_summary(summary);
      return summary.state == static_cast<std::uint8_t>(SessionState::kDone)
                 ? 0
                 : 1;
    }
    if (cmd == "subscribe") {
      if (argc < 4) usage_error(kUsage, "subscribe needs a session id");
      const SessionSummary summary = follow(client, parse_sid(argv[3]));
      print_summary(summary);
      return 0;
    }
    if (cmd == "detach-probe") {
      if (argc < 4) usage_error(kUsage, "detach-probe needs a session id");
      const std::uint64_t sid = parse_sid(argv[3]);
      const SnapshotMsg snap = client.subscribe(sid);
      std::printf("snapshot: %zu round(s), state %s\n", snap.history.size(),
                  session_state_name(static_cast<SessionState>(snap.state)));
      const std::vector<ServeEvent> in_flight = client.detach(sid);
      std::printf("detached; %zu event(s) before the ack\n",
                  in_flight.size());
      return 0;
    }
    if (cmd == "cancel") {
      if (argc < 4) usage_error(kUsage, "cancel needs a session id");
      const ServeEvent reply = client.cancel(parse_sid(argv[3]));
      if (reply.type == ServeMsgType::kError) {
        std::fprintf(stderr, "cancel failed: %s\n",
                     reply.error.message.c_str());
        return 1;
      }
      print_status(reply.status);
      return 0;
    }
    if (cmd == "fetch") {
      if (argc < 4) usage_error(kUsage, "fetch needs a session id");
      return cmd_fetch(client, parse_sid(argv[3]));
    }
    if (cmd == "status") {
      const std::uint64_t sid = argc >= 4 ? parse_sid(argv[3]) : 0;
      const ServeEvent reply = client.query(sid);
      if (reply.type == ServeMsgType::kError) {
        std::fprintf(stderr, "status failed: %s\n",
                     reply.error.message.c_str());
        return 1;
      }
      print_status(reply.status);
      return 0;
    }
    usage_error(kUsage, "unknown command " + cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "puffer_client: %s\n", e.what());
    return 1;
  }
}
