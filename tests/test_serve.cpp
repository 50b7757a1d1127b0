// Serve-subsystem tests: wire codecs (round trips + malformed-input
// rejection), the binary design codec, the pinned bytes of every binary
// record and log line, congestion-tile telemetry, the crash-safe
// request log and its replay, the session manager's state machine
// (queued -> running -> done/cancelled/failed), admission control
// (bounded queue, draining, bad requests -- explicit rejection, never a
// hang), restart recovery from the spool, and the daemon
// end-to-end over a Unix socket: concurrent clients whose results are
// bit-identical to an in-process PufferFlow::run(), snapshot/telemetry
// consistency across detach/re-attach, and malformed-traffic handling.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/config_io.h"
#include "core/flow.h"
#include "grid/capacity.h"
#include "io/design_codec.h"
#include "io/net.h"
#include "io/synthetic.h"
#include "orchestrate/protocol.h"
#include "orchestrate/pruner.h"
#include "orchestrate/trial_journal.h"
#include "serve/client.h"
#include "serve/request_log.h"
#include "serve/server.h"
#include "serve/serve_protocol.h"
#include "serve/session_manager.h"
#include "serve/telemetry.h"

namespace puffer {
namespace {

SyntheticSpec small_spec(std::uint64_t seed = 91) {
  SyntheticSpec spec;
  spec.name = "serve";
  spec.seed = seed;
  spec.num_cells = 300;
  spec.num_nets = 450;
  spec.num_macros = 2;
  spec.target_utilization = 0.78;
  spec.v_capacity_factor = 0.55;
  return spec;
}

PufferConfig small_flow_config() {
  PufferConfig cfg;
  cfg.gp.max_iters = 250;
  cfg.padding.xi = 3;
  return cfg;
}

std::string small_config_text() { return config_to_text(small_flow_config()); }

std::filesystem::path temp_dir(const char* leaf) {
  const auto dir = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SubmitMsg small_job(const char* name = "job") {
  SubmitMsg msg;
  msg.job_name = name;
  msg.design_blob = encode_design(generate_synthetic(small_spec()));
  msg.config_text = small_config_text();
  return msg;
}

// The reference run: the exact flow the daemon executes, in-process.
// Computed once; every bit-identity assertion compares against this.
struct DirectReference {
  std::uint64_t checksum = 0;
  double hpwl_legal = 0.0;
  std::vector<TelemetryRound> rounds;
};

const DirectReference& direct_reference() {
  static const DirectReference ref = [] {
    DirectReference r;
    Design design = decode_design(encode_design(generate_synthetic(
        small_spec())));
    PufferConfig cfg =
        config_from_text(small_config_text(), PufferConfig{});
    PufferFlow flow(design, cfg);
    TelemetryRound prev;
    bool have_prev = false;
    flow.set_progress_hook([&](const FlowProgress& p) {
      r.rounds.push_back(make_round(p, have_prev ? &prev : nullptr));
      prev = r.rounds.back();
      have_prev = true;
      return true;
    });
    const FlowMetrics metrics = flow.run();
    r.checksum = position_checksum(design);
    r.hpwl_legal = metrics.hpwl_legal;
    return r;
  }();
  return ref;
}

// --- wire protocol codecs ------------------------------------------------

TEST(ServeProtocol, SubmitRoundTrip) {
  SubmitMsg m;
  m.job_name = "alpha";
  m.design_blob = std::string("PUFD\0\x01 blob", 11);
  m.config_text = "padding.tau = 0.25\n";
  const SubmitMsg d = decode_submit(encode_submit(m));
  EXPECT_EQ(d.job_name, "alpha");
  EXPECT_EQ(d.design_blob, m.design_blob);
  EXPECT_EQ(d.config_text, m.config_text);
}

TEST(ServeProtocol, SnapshotRoundTripBitExact) {
  SnapshotMsg m;
  m.session_id = 42;
  m.state = static_cast<std::uint8_t>(SessionState::kDone);
  TelemetryRound t;
  t.round = 3;
  t.est_overflow_pct = 12.75;
  t.hpwl = -0.1;  // bit pattern must survive exactly
  t.overflow_delta = 1e-300;
  t.hpwl_delta = 5.5;
  t.tile_nx = 2;
  t.tile_ny = 1;
  t.tile = std::string("\x80\xc0", 2);
  m.history.push_back(t);
  m.has_summary = 1;
  m.summary.state = m.state;
  m.summary.checksum = 0xdeadbeefcafef00dULL;
  m.summary.hpwl_legal = 123.456;
  m.summary.runtime_s = 1.5;
  m.summary.padding_rounds = 4;
  const SnapshotMsg d = decode_snapshot_msg(encode_snapshot_msg(m));
  ASSERT_EQ(d.history.size(), 1u);
  EXPECT_EQ(d.history[0].round, 3);
  EXPECT_EQ(d.history[0].hpwl, -0.1);
  EXPECT_EQ(d.history[0].overflow_delta, 1e-300);
  EXPECT_EQ(d.history[0].tile, t.tile);
  ASSERT_EQ(d.has_summary, 1);
  EXPECT_EQ(d.summary.checksum, m.summary.checksum);
  EXPECT_EQ(d.summary.hpwl_legal, 123.456);
}

TEST(ServeProtocol, RejectsTrailingBytes) {
  SessionRefMsg ref;
  ref.session_id = 7;
  std::string body = encode_session_ref(ref);
  body.push_back('x');
  EXPECT_THROW(decode_session_ref(body), CheckpointError);
}

TEST(ServeProtocol, RejectsBadEnums) {
  SubmitAckMsg ack;
  ack.state = 200;  // not a SessionState
  EXPECT_THROW(decode_submit_ack(encode_submit_ack(ack)), CheckpointError);
  RejectedMsg rej;
  rej.reason = 0;
  EXPECT_THROW(decode_rejected(encode_rejected(rej)), CheckpointError);
}

TEST(ServeProtocol, RejectsTileSizeMismatch) {
  TelemetryMsg m;
  m.round.tile_nx = 4;
  m.round.tile_ny = 4;
  m.round.tile = "abc";  // 3 bytes != 16
  EXPECT_THROW(decode_telemetry(encode_telemetry(m)), CheckpointError);
}

TEST(ServeProtocol, RejectsTruncatedResult) {
  ResultMsg m;
  m.session_id = 1;
  m.x = {1.0, 2.0};
  m.y = {3.0, 4.0};
  std::string body = encode_result(m);
  body.resize(body.size() - 5);
  EXPECT_THROW(decode_result(body), CheckpointError);
}

// --- binary design codec -------------------------------------------------

TEST(DesignCodec, RoundTripIsStructurallyAndBitwiseExact) {
  const Design a = generate_synthetic(small_spec());
  const std::string blob = encode_design(a);
  const Design b = decode_design(blob);
  EXPECT_EQ(design_structure_key(a), design_structure_key(b));
  EXPECT_EQ(position_checksum(a), position_checksum(b));
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(a.tech.layers.size(), b.tech.layers.size());
  // Re-encode is byte-identical (stable wire form).
  EXPECT_EQ(encode_design(b), blob);
}

TEST(DesignCodec, RejectsCorruption) {
  const Design a = generate_synthetic(small_spec());
  std::string blob = encode_design(a);
  EXPECT_THROW(decode_design("short"), CheckpointError);
  std::string flipped = blob;
  flipped[blob.size() / 2] ^= 0x20;
  EXPECT_THROW(decode_design(flipped), CheckpointError);
  std::string truncated = blob.substr(0, blob.size() - 3);
  EXPECT_THROW(decode_design(truncated), CheckpointError);
}

// --- telemetry tiles -----------------------------------------------------

TEST(Telemetry, QuantizeCongestion) {
  EXPECT_EQ(quantize_congestion(0.0), 128);   // at capacity
  EXPECT_EQ(quantize_congestion(1.0), 192);   // 100% overflow
  EXPECT_EQ(quantize_congestion(-1.0), 64);   // 100% slack
  EXPECT_EQ(quantize_congestion(10.0), 255);  // clamped
  EXPECT_EQ(quantize_congestion(-10.0), 0);
}

TEST(Telemetry, TileMaxPoolingKeepsHotspotVisible) {
  const GcellGrid grid(Rect(0, 0, 64, 64), 64, 64);
  CapacityMaps caps;
  caps.cap_h = Map2D<double>(64, 64, 10.0);
  caps.cap_v = Map2D<double>(64, 64, 10.0);
  RoutingMaps maps(grid, caps);
  maps.dmd_h.fill(1.0);
  maps.dmd_v.fill(1.0);
  maps.dmd_h.at(37, 11) = 30.0;  // one overflowed Gcell

  int nx = 0, ny = 0;
  std::string tile;
  congestion_tile(maps, 32, &nx, &ny, &tile);
  ASSERT_EQ(nx, 32);
  ASSERT_EQ(ny, 32);
  ASSERT_EQ(tile.size(), 32u * 32u);
  // The hotspot's 2x2 pool must quantize above "at capacity"; all other
  // tiles sit below it (slack everywhere else).
  const std::uint8_t hot = static_cast<std::uint8_t>(
      tile[static_cast<std::size_t>(11 / 2) * 32 + 37 / 2]);
  EXPECT_GT(hot, 128);
  int above = 0;
  for (char c : tile) above += static_cast<std::uint8_t>(c) > 128 ? 1 : 0;
  EXPECT_EQ(above, 1);
}

// --- request log ---------------------------------------------------------

TEST(RequestLog, RoundTripAndReplay) {
  const auto dir = temp_dir("serve_log_test");
  const std::string path = (dir / "requests.jsonl").string();
  {
    RequestLog log(path);
    RequestLogRecord sub;
    sub.type = RequestLogRecord::Type::kSubmit;
    sub.session_id = 1;
    sub.job_file = "job_1.bin";
    sub.job_name = "alpha";
    log.append(sub);
    RequestLogRecord start;
    start.type = RequestLogRecord::Type::kStart;
    start.session_id = 1;
    log.append(start);
    RequestLogRecord fin;
    fin.type = RequestLogRecord::Type::kFinish;
    fin.session_id = 1;
    fin.state = static_cast<std::uint8_t>(SessionState::kDone);
    fin.checksum = 0x0123456789abcdefULL;
    fin.hpwl_legal = -0.1;  // exact-bit replay
    fin.runtime_s = 2.5;
    fin.rounds = 3;
    fin.result_file = "result_1.bin";
    log.append(fin);
    RequestLogRecord sub2 = sub;
    sub2.session_id = 2;
    sub2.job_file = "job_2.bin";
    log.append(sub2);
  }
  const auto records = RequestLog::load(path);
  ASSERT_EQ(records.size(), 5u);  // header + 4
  EXPECT_EQ(records[0].type, RequestLogRecord::Type::kHeader);

  const auto sessions = replay_request_log(records);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].session_id, 1u);
  EXPECT_TRUE(sessions[0].finished);
  EXPECT_EQ(sessions[0].summary.checksum, 0x0123456789abcdefULL);
  EXPECT_EQ(sessions[0].summary.hpwl_legal, -0.1);
  EXPECT_EQ(sessions[0].summary.padding_rounds, 3);
  EXPECT_EQ(sessions[0].result_file, "result_1.bin");
  EXPECT_FALSE(sessions[1].finished);
}

TEST(RequestLog, TornTailIsDropped) {
  const auto dir = temp_dir("serve_log_torn");
  const std::string path = (dir / "requests.jsonl").string();
  {
    RequestLog log(path);
    RequestLogRecord sub;
    sub.type = RequestLogRecord::Type::kSubmit;
    sub.session_id = 1;
    sub.job_file = "job_1.bin";
    log.append(sub);
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"type\":\"finish\",\"sid\":1,\"sta";  // torn mid-record
  }
  const auto sessions = replay_request_log(RequestLog::load(path));
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_FALSE(sessions[0].finished);
}

// A daemon restarted after a crash that tore the log's last line must
// keep what it logs from then on: reopening cuts the torn tail off, so
// the next lifetime's records are not glued onto it and lost.
TEST(RequestLog, ReopenAfterTornTailKeepsNewRecords) {
  const auto dir = temp_dir("serve_log_reopen");
  const std::string path = (dir / "requests.jsonl").string();
  RequestLogRecord sub;
  sub.type = RequestLogRecord::Type::kSubmit;
  sub.session_id = 1;
  sub.job_file = "job_1.bin";
  {
    RequestLog log(path);
    log.append(sub);
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"type\":\"finish\",\"sid\":1,\"sta";  // torn mid-record
  }
  {
    RequestLog log(path);  // second lifetime
    sub.session_id = 2;
    sub.job_file = "job_2.bin";
    log.append(sub);
    RequestLogRecord fin;
    fin.type = RequestLogRecord::Type::kFinish;
    fin.session_id = 2;
    fin.state = static_cast<std::uint8_t>(SessionState::kDone);
    fin.result_file = "result_2.bin";
    log.append(fin);
  }
  const auto sessions = replay_request_log(RequestLog::load(path));
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].session_id, 1u);
  EXPECT_FALSE(sessions[0].finished);
  EXPECT_EQ(sessions[1].session_id, 2u);
  EXPECT_TRUE(sessions[1].finished);
  EXPECT_EQ(sessions[1].result_file, "result_2.bin");
}

// Both logs' record lines, pinned byte for byte: logs written before a
// codec change must still load after it.
TEST(LogLineFormat, PinsEveryRecordTypeOfBothLogs) {
  JournalRecord j;
  j.type = JournalRecord::Type::kHeader;
  j.design_key = 0x0123456789abcdefull;
  j.prefix_key = 0xfedcba9876543210ull;
  j.space_key = 1;
  j.seed = 1234;
  j.trials = 16;
  j.batch_size = 4;
  EXPECT_EQ(TrialJournal::encode(j),
            "{\"type\":\"header\",\"version\":1,\"design_key\":"
            "\"0123456789abcdef\",\"prefix_key\":\"fedcba9876543210\","
            "\"space_key\":\"0000000000000001\",\"seed\":"
            "\"00000000000004d2\",\"trials\":16,\"batch_size\":4}");
  j.type = JournalRecord::Type::kCheckpoint;
  j.path = "ckpt/prefix.ckpt";
  EXPECT_EQ(TrialJournal::encode(j),
            "{\"type\":\"checkpoint\",\"path\":\"ckpt/prefix.ckpt\","
            "\"prefix_key\":\"fedcba9876543210\"}");
  j.type = JournalRecord::Type::kTrialStart;
  j.trial = 3;
  j.akey = 0xabc;
  EXPECT_EQ(TrialJournal::encode(j),
            "{\"type\":\"trial_start\",\"trial\":3,\"akey\":"
            "\"0000000000000abc\"}");
  j.type = JournalRecord::Type::kTrialComplete;
  j.loss = 1.25;
  j.pruned = true;
  j.prune_round = 1;
  j.checksum = 0;
  j.rounds = {0.1, 2.5};
  EXPECT_EQ(TrialJournal::encode(j),
            "{\"type\":\"trial_complete\",\"trial\":3,\"akey\":"
            "\"0000000000000abc\",\"loss_bits\":\"3ff4000000000000\","
            "\"loss\":1.25,\"pruned\":1,\"prune_round\":1,\"checksum\":"
            "\"0000000000000000\",\"rounds\":[\"3fb999999999999a\","
            "\"4004000000000000\"]}");
  j.loss = 1.0 / 3.0;
  j.pruned = false;
  j.prune_round = -1;
  j.checksum = 0xdeadbeef;
  j.rounds.clear();
  EXPECT_EQ(TrialJournal::encode(j),
            "{\"type\":\"trial_complete\",\"trial\":3,\"akey\":"
            "\"0000000000000abc\",\"loss_bits\":\"3fd5555555555555\","
            "\"loss\":0.333333,\"pruned\":0,\"prune_round\":-1,"
            "\"checksum\":\"00000000deadbeef\",\"rounds\":[]}");
  j.type = JournalRecord::Type::kExploreComplete;
  j.best_trial = 3;
  j.best_loss = 1.25;
  j.best_checksum = 0x1234;
  EXPECT_EQ(TrialJournal::encode(j),
            "{\"type\":\"explore_complete\",\"best_trial\":3,"
            "\"best_loss_bits\":\"3ff4000000000000\",\"best_loss\":1.25,"
            "\"best_checksum\":\"0000000000001234\"}");

  RequestLogRecord r;
  r.type = RequestLogRecord::Type::kHeader;
  EXPECT_EQ(RequestLog::encode(r), "{\"type\":\"header\",\"version\":1}");
  r.type = RequestLogRecord::Type::kSubmit;
  r.session_id = 7;
  r.job_file = "job_7.bin";
  r.job_name = "a\"b\\c\nd\re";
  EXPECT_EQ(RequestLog::encode(r),
            "{\"type\":\"submit\",\"sid\":7,\"job\":\"job_7.bin\","
            "\"name\":\"a_b_c_d_e\"}");
  r.type = RequestLogRecord::Type::kStart;
  EXPECT_EQ(RequestLog::encode(r), "{\"type\":\"start\",\"sid\":7}");
  r.type = RequestLogRecord::Type::kCancel;
  r.session_id = 18446744073709551615ull;
  EXPECT_EQ(RequestLog::encode(r),
            "{\"type\":\"cancel\",\"sid\":18446744073709551615}");
  r.type = RequestLogRecord::Type::kFinish;
  r.session_id = 7;
  r.state = static_cast<std::uint8_t>(SessionState::kFailed);
  r.checksum = 0x0123456789abcdefull;
  r.hpwl_legal = 1.25;
  r.runtime_s = 0.1;
  r.rounds = 3;
  r.result_file = "result_7.bin";
  r.message = "bad \"key\"";
  EXPECT_EQ(RequestLog::encode(r),
            "{\"type\":\"finish\",\"sid\":7,\"state\":4,\"checksum\":"
            "\"0123456789abcdef\",\"hpwl_bits\":\"3ff4000000000000\","
            "\"runtime_bits\":\"3fb999999999999a\",\"rounds\":3,"
            "\"result\":\"result_7.bin\",\"msg\":\"bad _key_\"}");
}

// Every binary record, pinned byte for byte: blobs spooled, journaled or
// sent by an older build must still decode after a codec change. One
// fixed instance of each serve and orchestration message, a prefix
// snapshot, a small hand-built design blob and a frozen PruneThresholds.
std::string hex_of(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<unsigned char>(c) >> 4];
    out += kDigits[static_cast<unsigned char>(c) & 15];
  }
  return out;
}

TEST(BinaryRecordFormat, PinsEveryRecordType) {
  ClientHelloMsg client_hello;
  client_hello.client_name = "cli";
  EXPECT_EQ(hex_of(encode_client_hello(client_hello)),
            "030000000300000000000000636c69");
  ServerHelloMsg server_hello;
  server_hello.daemon_name = "d";
  EXPECT_EQ(hex_of(encode_server_hello(server_hello)),
            "03000000010000000000000064");
  SubmitMsg submit;
  submit.job_name = "j";
  submit.design_blob = "AB";
  submit.config_text = "k=1";
  EXPECT_EQ(hex_of(encode_submit(submit)),
            "01000000000000006a0200000000000000414203000000000000006b3d31");
  SubmitAckMsg ack;
  ack.session_id = 0x0102030405060708ull;
  ack.state = static_cast<std::uint8_t>(SessionState::kRunning);
  ack.queue_depth = -2;
  EXPECT_EQ(hex_of(encode_submit_ack(ack)), "080706050403020101feffffff");
  RejectedMsg rejected;
  rejected.reason = static_cast<std::uint8_t>(RejectReason::kDraining);
  rejected.message = "no";
  EXPECT_EQ(hex_of(encode_rejected(rejected)), "0302000000000000006e6f");
  SessionRefMsg ref;
  ref.session_id = 9;
  EXPECT_EQ(hex_of(encode_session_ref(ref)), "0900000000000000");

  TelemetryRound round;
  round.round = 1;
  round.est_overflow_pct = 2.5;
  round.hpwl = 1000.0;
  round.overflow_delta = -0.5;
  round.hpwl_delta = 0.25;
  round.tile_nx = 2;
  round.tile_ny = 1;
  round.tile = std::string("\x80\x40", 2);
  SessionSummary summary;
  summary.state = static_cast<std::uint8_t>(SessionState::kFailed);
  summary.checksum = 0xfedcba9876543210ull;
  summary.hpwl_legal = 1.0 / 3.0;
  summary.runtime_s = 0.1;
  summary.padding_rounds = 3;
  summary.message = "x";
  SnapshotMsg snapshot;
  snapshot.session_id = 4;
  snapshot.state = static_cast<std::uint8_t>(SessionState::kDone);
  snapshot.history = {round, TelemetryRound{}};
  snapshot.has_summary = 1;
  snapshot.summary = summary;
  EXPECT_EQ(hex_of(encode_snapshot_msg(snapshot)),
            "0400000000000000020200000000000000010000000000000000000440000000"
            "0000408f40000000000000e0bf000000000000d03f0200000001000000020000"
            "00000000008040ffffffff000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000104103254"
            "7698badcfe555555555555d53f9a9999999999b93f0300000001000000000000"
            "0078");
  TelemetryMsg telemetry;
  telemetry.session_id = 5;
  telemetry.round = round;
  EXPECT_EQ(hex_of(encode_telemetry(telemetry)),
            "05000000000000000100000000000000000004400000000000408f4000000000"
            "0000e0bf000000000000d03f020000000100000002000000000000008040");
  DoneMsg done;
  done.session_id = 6;
  done.summary = summary;
  EXPECT_EQ(hex_of(encode_done(done)),
            "0600000000000000041032547698badcfe555555555555d53f9a9999999999b9"
            "3f03000000010000000000000078");
  ResultMsg result;
  result.session_id = 7;
  result.checksum = 0xabcdefull;
  result.hpwl_legal = -0.1;
  result.x = {1.5, -2.0};
  result.y = {0.0, 3.0};
  EXPECT_EQ(hex_of(encode_result(result)),
            "0700000000000000efcdab00000000009a9999999999b9bf0200000000000000"
            "000000000000f83f00000000000000c002000000000000000000000000000000"
            "0000000000000840");
  StatusMsg status;
  status.queued = 1;
  status.running = 2;
  status.done = 3;
  status.cancelled = 4;
  status.failed = 5;
  status.max_running = 6;
  status.max_queued = 7;
  status.draining = 1;
  status.has_session = 1;
  status.session_id = 8;
  status.session_state = static_cast<std::uint8_t>(SessionState::kQueued);
  status.session_rounds = -1;
  EXPECT_EQ(hex_of(encode_status(status)),
            "0100000002000000030000000400000005000000060000000700000001010800"
            "00000000000000ffffffff");
  ServeErrorMsg serve_error;
  serve_error.message = "oops";
  EXPECT_EQ(hex_of(encode_serve_error(serve_error)),
            "04000000000000006f6f7073");

  HelloMsg hello;
  hello.design_key = 0x1122334455667788ull;
  hello.worker_name = "w";
  EXPECT_EQ(hex_of(encode_hello(hello)),
            "040000008877665544332211010000000000000077");
  HelloAckMsg hello_ack;
  hello_ack.design_key = 1;
  hello_ack.prefix_key = 2;
  hello_ack.base_config_text = "a=b";
  EXPECT_EQ(hex_of(encode_hello_ack(hello_ack)),
            "04000000010000000000000002000000000000000300000000000000613d62");
  TrialAssignMsg assign;
  assign.trial_id = 3;
  assign.akey = 0x55;
  assign.assignment = {0.5, 8.0};
  assign.pruner_blob = "P";
  EXPECT_EQ(hex_of(encode_trial_assign(assign)),
            "0300000055000000000000000200000000000000000000000000e03f00000000"
            "00002040010000000000000050");
  TrialResultMsg trial_result;
  trial_result.trial_id = 3;
  trial_result.akey = 0x55;
  trial_result.loss = 12.5;
  trial_result.pruned = 1;
  trial_result.prune_round = 2;
  trial_result.checksum = 0x99;
  trial_result.rounds = {4.0};
  trial_result.wall_s = 0.75;
  EXPECT_EQ(hex_of(encode_trial_result(trial_result)),
            "0300000055000000000000000000000000002940010200000099000000000000"
            "0001000000000000000000000000001040000000000000e83f");
  ErrorMsg error;
  error.message = "bad";
  EXPECT_EQ(hex_of(encode_error(error)), "0300000000000000626164");

  FlowSnapshot snap;
  snap.design_key = 0xaa;
  snap.prefix_key = 0xbb;
  snap.x = {1.0, 2.0};
  snap.y = {-1.0, 0.5};
  EXPECT_EQ(hex_of(encode_snapshot(snap)),
            "4d46555001000000030053504000000000000000aa00000000000000bb000000"
            "000000000200000000000000000000000000f03f000000000000004002000000"
            "00000000000000000000f0bf000000000000e03f1fd250c052daa94e");

  Design design;
  design.name = "pin";
  design.tech.site_width = 0.5;
  design.tech.row_height = 2.0;
  design.tech.macro_blocked_layers = 1;
  design.tech.layers = {{"M1", RouteDir::kHorizontal, 1.0, 1.5},
                        {"M2", RouteDir::kVertical, 2.0, 2.5}};
  design.die = Rect(0.0, 0.0, 8.0, 4.0);
  Cell a;
  a.name = "a";
  a.width = 1.0;
  a.height = 2.0;
  a.x = 0.5;
  Cell io;
  io.name = "t";
  io.kind = CellKind::kTerminal;
  io.x = 8.0;
  io.y = 1.0;
  design.add_cell(a);
  design.add_cell(io);
  const NetId net = design.add_net("n", 2.0);
  design.connect(0, net, 0.5, 1.0);
  design.connect(1, net, 0.0, 0.0);
  Row row;
  row.y = 0.0;
  row.x_lo = 0.0;
  row.num_sites = 16;
  row.site_width = 0.5;
  row.height = 2.0;
  design.rows = {row, row};
  design.rows[1].y = 2.0;
  const std::string blob = encode_design(design);
  EXPECT_EQ(hex_of(blob),
            "4d46555001000000020044507a01000000000000030000000000000070696e00"
            "0000000000e03f00000000000000400100000002000000000000000200000000"
            "0000004d3100000000000000f03f000000000000f83f02000000000000004d32"
            "0100000000000000400000000000000440000000000000000000000000000000"
            "0000000000000020400000000000001040020000000000000001000000000000"
            "006100000000000000f03f0000000000000040000000000000e03f0000000000"
            "0000000100000000000000740200000000000000000000000000000000000000"
            "0000002040000000000000f03f010000000000000001000000000000006e0000"
            "00000000004002000000000000000000000000000000000000000000e03f0000"
            "00000000f03f0100000000000000000000000000000000000000000000000200"
            "0000000000000000000000000000000000000000000010000000000000000000"
            "e03f000000000000004000000000000000400000000000000000100000000000"
            "00000000e03f000000000000004098e58084a8c456be");
  EXPECT_EQ(encode_design(decode_design(blob)), blob);

  PruneConfig prune;
  prune.enabled = true;
  prune.grace_rounds = 1;
  prune.min_history = 2;
  prune.quantile = 0.25;
  prune.penalty = 100.0;
  PruneThresholds thresholds(prune);
  thresholds.observe({1.0, 2.0});
  thresholds.observe({3.0});
  EXPECT_EQ(hex_of(encode_prune_thresholds(thresholds)),
            "010100000002000000000000000000d03f000000000000594002000000020000"
            "00000000000200000000000000000000000000f03f0000000000000840010000"
            "00000000000000000000000040");
}

// --- session manager -----------------------------------------------------

// Drives the manager the way the poll loop does, without a server.
class ManagerHarness {
 public:
  explicit ManagerHarness(ServeConfig config)
      : mgr_(std::move(config), nullptr) {}

  ServeSessionManager& mgr() { return mgr_; }

  // Pumps + applies events until the session settles (or 60s pass).
  const ServeSession* settle(std::uint64_t sid) {
    for (int spins = 0; spins < 60000; ++spins) {
      mgr_.pump();
      for (const SessionEvent& ev : mgr_.drain_events()) {
        mgr_.apply(ev);
      }
      const ServeSession* s = mgr_.find(sid);
      if (s && session_terminal(s->state)) return s;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return nullptr;
  }

 private:
  ServeSessionManager mgr_;
};

ServeConfig manager_config(const char* leaf) {
  ServeConfig cfg;
  cfg.spool_dir = temp_dir(leaf).string();
  return cfg;
}

TEST(ServeSessionManager, RunsSessionToDoneBitIdenticalToDirectFlow) {
  ManagerHarness h(manager_config("serve_mgr_done"));
  const auto res = h.mgr().submit(encode_submit(small_job()));
  ASSERT_TRUE(res.accepted);
  EXPECT_EQ(res.state, SessionState::kQueued);

  const ServeSession* s = h.settle(res.session_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->state, SessionState::kDone);
  EXPECT_EQ(s->summary.checksum, direct_reference().checksum);
  EXPECT_EQ(s->summary.hpwl_legal, direct_reference().hpwl_legal);

  // Streamed history matches the direct run's hook payloads bit-exactly.
  const auto& want = direct_reference().rounds;
  ASSERT_EQ(s->history.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(s->history[i].round, want[i].round);
    EXPECT_EQ(s->history[i].est_overflow_pct, want[i].est_overflow_pct);
    EXPECT_EQ(s->history[i].hpwl, want[i].hpwl);
    EXPECT_EQ(s->history[i].overflow_delta, want[i].overflow_delta);
    EXPECT_EQ(s->history[i].hpwl_delta, want[i].hpwl_delta);
    EXPECT_EQ(s->history[i].tile, want[i].tile);
  }

  // The spooled result decodes to the same placement.
  std::string body;
  ASSERT_TRUE(h.mgr().result_body(res.session_id, &body));
  const ResultMsg result = decode_result(body);
  EXPECT_EQ(result.checksum, direct_reference().checksum);
  EXPECT_EQ(result.x.size(), result.y.size());
}

TEST(ServeSessionManager, StateMachineAndAdmissionControl) {
  ServeConfig cfg = manager_config("serve_mgr_admission");
  cfg.max_running = 1;
  cfg.max_queued = 2;
  ManagerHarness h(cfg);

  // Malformed submits are rejected at the door (and don't take a slot).
  const auto bad = h.mgr().submit("not a submit body");
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.reason, RejectReason::kBadRequest);
  SubmitMsg garbage_design = small_job("g");
  garbage_design.design_blob = "garbage";
  const auto bad2 = h.mgr().submit(encode_submit(garbage_design));
  EXPECT_FALSE(bad2.accepted);
  EXPECT_EQ(bad2.reason, RejectReason::kBadRequest);

  // Fill the queue without starting anything.
  const auto a = h.mgr().submit(encode_submit(small_job("a")));
  const auto b = h.mgr().submit(encode_submit(small_job("b")));
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(b.queue_depth, 1);

  // Bounded queue: the third submit is rejected, not blocked or dropped
  // (the capacity check precedes decoding, so even a malformed body gets
  // the queue-full reply here -- backpressure is always explicit).
  const auto c = h.mgr().submit(encode_submit(small_job("c")));
  EXPECT_FALSE(c.accepted);
  EXPECT_EQ(c.reason, RejectReason::kQueueFull);

  // Cancel-while-queued settles immediately: queued -> cancelled.
  ASSERT_TRUE(h.mgr().cancel(b.session_id));
  const ServeSession* sb = h.mgr().find(b.session_id);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->state, SessionState::kCancelled);
  EXPECT_FALSE(h.mgr().cancel(9999));  // unknown id

  // Draining rejects new work but finishes what was admitted.
  h.mgr().set_draining();
  const auto d = h.mgr().submit(encode_submit(small_job("d")));
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.reason, RejectReason::kDraining);

  const ServeSession* sa = h.settle(a.session_id);
  ASSERT_NE(sa, nullptr);
  EXPECT_EQ(sa->state, SessionState::kDone);
  EXPECT_EQ(sa->summary.checksum, direct_reference().checksum);
  EXPECT_TRUE(h.mgr().idle());

  const StatusMsg status = h.mgr().status(a.session_id);
  EXPECT_EQ(status.done, 1);
  EXPECT_EQ(status.cancelled, 1);
  EXPECT_EQ(status.draining, 1);
  EXPECT_EQ(status.has_session, 1);
  EXPECT_EQ(status.session_state,
            static_cast<std::uint8_t>(SessionState::kDone));
}

// A design whose numbers the engine cannot use is refused at admission,
// before a session exists, instead of running into an illegal placement
// or an engine error.
TEST(ServeSessionManager, RejectsUnusableDesignNumbersAtAdmission) {
  ManagerHarness h(manager_config("serve_mgr_bad_design"));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto movable = [](Design& d) -> Cell& {
    for (Cell& c : d.cells) {
      if (c.movable()) return c;
    }
    throw std::logic_error("design has no movable cell");
  };
  const std::vector<std::pair<const char*, std::function<void(Design&)>>>
      cases = {
          {"NaN cell width", [&](Design& d) { movable(d).width = nan; }},
          {"negative cell width", [&](Design& d) { movable(d).width = -1.0; }},
          {"negative cell height",
           [&](Design& d) { movable(d).height = -8.0; }},
          {"infinite cell x", [&](Design& d) { movable(d).x = inf; }},
          {"NaN pin offset", [&](Design& d) { d.pins[0].dx = nan; }},
          {"infinite net weight", [&](Design& d) { d.nets[0].weight = inf; }},
          {"zero-width die", [](Design& d) { d.die.xhi = d.die.xlo; }},
          {"NaN die corner", [&](Design& d) { d.die.yhi = nan; }},
          {"zero-height rows",
           [](Design& d) {
             for (Row& r : d.rows) r.height = 0.0;
           }},
          {"zero row site width",
           [](Design& d) { d.rows[0].site_width = 0.0; }},
          {"NaN row origin", [&](Design& d) { d.rows[0].x_lo = nan; }},
          {"zero technology row height",
           [](Design& d) { d.tech.row_height = 0.0; }},
          {"negative technology site width",
           [](Design& d) { d.tech.site_width = -1.0; }},
          {"infinite wire spacing",
           [&](Design& d) { d.tech.layers[0].wire_spacing = inf; }},
          {"zero layer pitch",
           [](Design& d) {
             d.tech.layers[0].wire_spacing = -d.tech.layers[0].wire_width;
           }},
          {"movable cell twice the die width",
           [&](Design& d) { movable(d).width = 2.0 * d.die.width(); }},
          {"row without sites", [](Design& d) { d.rows[0].num_sites = 0; }},
      };
  for (const auto& [what, edit] : cases) {
    Design d = generate_synthetic(small_spec());
    edit(d);
    SubmitMsg job = small_job(what);
    job.design_blob = encode_design(d);
    const auto res = h.mgr().submit(encode_submit(job));
    EXPECT_FALSE(res.accepted) << what;
    EXPECT_EQ(res.reason, RejectReason::kBadRequest) << what;
  }
  EXPECT_TRUE(h.mgr().idle());
  // The generator's I/O terminals have zero size; they stay valid.
  EXPECT_EQ(generate_synthetic(small_spec()).validate(), "");
}

// A flow whose legalization leaves the placement illegal has no result:
// the session fails with the legality summary and spools nothing.
TEST(ServeSessionManager, IllegalPlacementFailsTheSession) {
  SyntheticSpec spec = small_spec();
  spec.target_utilization = 0.9;
  PufferConfig cfg = small_flow_config();
  cfg.legal.max_row_search = 1;
  {
    // The same job in-process: legalization cannot place every cell.
    Design d = generate_synthetic(spec);
    const FlowMetrics m = PufferFlow(d, cfg).run();
    ASSERT_FALSE(m.legality.legal);
    ASSERT_GT(m.legalize.failed_cells, 0);
  }
  const ServeConfig mc = manager_config("serve_mgr_illegal");
  ManagerHarness h(mc);
  SubmitMsg job = small_job("illegal");
  job.design_blob = encode_design(generate_synthetic(spec));
  job.config_text = config_to_text(cfg);
  const auto res = h.mgr().submit(encode_submit(job));
  ASSERT_TRUE(res.accepted);
  const ServeSession* s = h.settle(res.session_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->state, SessionState::kFailed);
  EXPECT_NE(s->summary.message.find("ILLEGAL"), std::string::npos)
      << s->summary.message;
  std::string body;
  EXPECT_FALSE(h.mgr().result_body(res.session_id, &body));
  EXPECT_FALSE(std::filesystem::exists(
      mc.spool_dir + "/result_" + std::to_string(res.session_id) + ".bin"));
}

TEST(ServeSessionManager, BadConfigFailsTheSession) {
  ManagerHarness h(manager_config("serve_mgr_failed"));
  SubmitMsg job = small_job("bad-config");
  job.config_text = "no_such_knob = 1\n";
  const auto res = h.mgr().submit(encode_submit(job));
  ASSERT_TRUE(res.accepted);  // the netlist is fine; strategy fails later
  const ServeSession* s = h.settle(res.session_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->state, SessionState::kFailed);
  EXPECT_NE(s->summary.message.find("no_such_knob"), std::string::npos);
  std::string body;
  EXPECT_FALSE(h.mgr().result_body(res.session_id, &body));
}

TEST(ServeSessionManager, UnusableGpConfigFailsTheSession) {
  // A target density of 0 leaves no free capacity; the flow refuses it
  // at construction instead of running global placement against it.
  ManagerHarness h(manager_config("serve_mgr_bad_gp"));
  SubmitMsg job = small_job("bad-gp");
  job.config_text = "gp.target_density = 0\n";
  const auto res = h.mgr().submit(encode_submit(job));
  ASSERT_TRUE(res.accepted);
  const ServeSession* s = h.settle(res.session_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->state, SessionState::kFailed);
  EXPECT_NE(s->summary.message.find("target_density"), std::string::npos)
      << s->summary.message;
}

// A result file that cannot be spooled fails its session, not the
// daemon: the finish record still lands, and the next session runs.
TEST(ServeSessionManager, UnwritableResultSpoolFailsOnlyThatSession) {
  ServeConfig cfg = manager_config("serve_mgr_unwritable");
  // A directory where session 1's temporary result file must go.
  std::filesystem::create_directory(cfg.spool_dir + "/result_1.bin.tmp");
  std::uint64_t failed_sid = 0, done_sid = 0;
  {
    ManagerHarness h(cfg);
    const auto a = h.mgr().submit(encode_submit(small_job("unwritable")));
    ASSERT_TRUE(a.accepted);
    failed_sid = a.session_id;
    ASSERT_EQ(failed_sid, 1u);
    const ServeSession* s = h.settle(failed_sid);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->state, SessionState::kFailed);
    EXPECT_NE(s->summary.message.find("result_1.bin.tmp"), std::string::npos)
        << s->summary.message;
    std::string body;
    EXPECT_FALSE(h.mgr().result_body(failed_sid, &body));

    const auto b = h.mgr().submit(encode_submit(small_job("writable")));
    ASSERT_TRUE(b.accepted);
    done_sid = b.session_id;
    const ServeSession* sb = h.settle(done_sid);
    ASSERT_NE(sb, nullptr);
    EXPECT_EQ(sb->state, SessionState::kDone);
    ASSERT_TRUE(h.mgr().result_body(done_sid, &body));
    EXPECT_EQ(decode_result(body).checksum, direct_reference().checksum);
  }

  // Both finish records were logged: a restart restores both sessions.
  ManagerHarness h2(cfg);
  const ServeSession* failed = h2.mgr().find(failed_sid);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->state, SessionState::kFailed);
  const ServeSession* done = h2.mgr().find(done_sid);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->state, SessionState::kDone);
}

// Caps the size of every file the process writes, as a full disk would,
// with SIGXFSZ ignored so an over-size write fails instead of killing
// the process; restores both on scope exit.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &old_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = old_;
    cap.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &cap);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit old_{};
  void (*old_handler_)(int) = SIG_DFL;
};

// Starting a session writes nothing: with the disk full right after a
// submit, pump() still starts it, and the session settles (failed, as
// its result cannot be spooled) instead of stranding the daemon.
TEST(ServeSessionManager, FullDiskAfterSubmitDoesNotFailTheStart) {
  ServeConfig cfg = manager_config("serve_mgr_full_disk");
  ManagerHarness h(cfg);
  const auto a = h.mgr().submit(encode_submit(small_job("full-disk")));
  ASSERT_TRUE(a.accepted);
  {
    const FileSizeCap cap(
        std::filesystem::file_size(cfg.spool_dir + "/requests.jsonl"));
    EXPECT_NO_THROW(h.mgr().pump());
    const ServeSession* s = h.settle(a.session_id);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->state, SessionState::kFailed);
  }
  EXPECT_TRUE(h.mgr().idle());
  // The result file cut short by the cap left no temporary behind.
  for (const auto& entry :
       std::filesystem::directory_iterator(cfg.spool_dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST(ServeSessionManager, RestartRecoversFinishedAndRerunsUnfinished) {
  ServeConfig cfg = manager_config("serve_mgr_recover");
  std::uint64_t done_sid = 0, pending_sid = 0;
  {
    ManagerHarness h(cfg);
    const auto a = h.mgr().submit(encode_submit(small_job("done-before")));
    ASSERT_TRUE(a.accepted);
    done_sid = a.session_id;
    ASSERT_NE(h.settle(done_sid), nullptr);
    // Second job admitted but never pumped: still queued at "crash".
    const auto b = h.mgr().submit(encode_submit(small_job("pending")));
    ASSERT_TRUE(b.accepted);
    pending_sid = b.session_id;
  }  // manager destroyed: the daemon "crashed"/restarted

  ManagerHarness h2(cfg);
  // The finished session is restored with its exact summary + result.
  const ServeSession* done = h2.mgr().find(done_sid);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->state, SessionState::kDone);
  EXPECT_EQ(done->summary.checksum, direct_reference().checksum);
  EXPECT_EQ(done->summary.hpwl_legal, direct_reference().hpwl_legal);
  std::string body;
  ASSERT_TRUE(h2.mgr().result_body(done_sid, &body));
  EXPECT_EQ(decode_result(body).checksum, direct_reference().checksum);

  // The unfinished session was re-admitted; the deterministic re-run
  // reproduces the same placement bit-for-bit.
  const ServeSession* pending = h2.mgr().find(pending_sid);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->state, SessionState::kQueued);
  const ServeSession* rerun = h2.settle(pending_sid);
  ASSERT_NE(rerun, nullptr);
  EXPECT_EQ(rerun->state, SessionState::kDone);
  EXPECT_EQ(rerun->summary.checksum, direct_reference().checksum);

  // New ids keep counting up from the recovered ones.
  const auto fresh = h2.mgr().submit(encode_submit(small_job("fresh")));
  ASSERT_TRUE(fresh.accepted);
  EXPECT_GT(fresh.session_id, pending_sid);
  h2.mgr().cancel(fresh.session_id);
}

// A failure message longer than any fixed line buffer must not cut its
// finish record short: a torn record would lose it and every later one.
TEST(ServeSessionManager, RestartKeepsSessionsAfterALongFailureMessage) {
  ServeConfig cfg = manager_config("serve_mgr_long_msg");
  std::uint64_t failed_sid = 0, done_sid = 0;
  std::string message;
  {
    ManagerHarness h(cfg);
    SubmitMsg bad = small_job("long-key");
    bad.config_text = std::string(600, 'k') + " = 1\n";
    const auto a = h.mgr().submit(encode_submit(bad));
    ASSERT_TRUE(a.accepted);
    failed_sid = a.session_id;
    const ServeSession* s = h.settle(failed_sid);
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->state, SessionState::kFailed);
    message = s->summary.message;
    ASSERT_GT(message.size(), 600u);
    const auto b = h.mgr().submit(encode_submit(small_job("after")));
    ASSERT_TRUE(b.accepted);
    done_sid = b.session_id;
    ASSERT_NE(h.settle(done_sid), nullptr);
  }

  ManagerHarness h2(cfg);
  const ServeSession* failed = h2.mgr().find(failed_sid);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->state, SessionState::kFailed);
  EXPECT_EQ(failed->summary.message, message);
  const ServeSession* done = h2.mgr().find(done_sid);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->state, SessionState::kDone);
  EXPECT_EQ(done->summary.checksum, direct_reference().checksum);
  const auto fresh = h2.mgr().submit(encode_submit(small_job("fresh")));
  ASSERT_TRUE(fresh.accepted);
  EXPECT_GT(fresh.session_id, done_sid);
  h2.mgr().cancel(fresh.session_id);
}

// Same for a client's job name, which the submit record carries.
TEST(ServeSessionManager, RestartKeepsSessionsAfterALongJobName) {
  ServeConfig cfg = manager_config("serve_mgr_long_name");
  const std::string name(600, 'n');
  std::uint64_t named_sid = 0, next_sid = 0;
  {
    ManagerHarness h(cfg);
    const auto a = h.mgr().submit(encode_submit(small_job(name.c_str())));
    ASSERT_TRUE(a.accepted);
    named_sid = a.session_id;
    ASSERT_NE(h.settle(named_sid), nullptr);
    const auto b = h.mgr().submit(encode_submit(small_job("after")));
    ASSERT_TRUE(b.accepted);
    next_sid = b.session_id;
    ASSERT_NE(h.settle(next_sid), nullptr);
  }

  ManagerHarness h2(cfg);
  for (const std::uint64_t sid : {named_sid, next_sid}) {
    const ServeSession* s = h2.mgr().find(sid);
    ASSERT_NE(s, nullptr) << "session " << sid << " lost on restart";
    EXPECT_EQ(s->state, SessionState::kDone);
    EXPECT_EQ(s->summary.checksum, direct_reference().checksum);
  }
  EXPECT_EQ(h2.mgr().find(named_sid)->job_name, name);
}

// --- daemon end-to-end ---------------------------------------------------

class ServerFixture {
 public:
  explicit ServerFixture(ServeConfig config, const char* sock_leaf) {
    address_ =
        (std::filesystem::temp_directory_path() / sock_leaf).string();
    ::unlink(address_.c_str());
    server_ = std::make_unique<PufferServer>(address_, std::move(config));
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ServerFixture() {
    server_->request_drain();
    thread_.join();
    server_.reset();
  }

  const std::string& address() const { return address_; }

 private:
  std::string address_;
  std::unique_ptr<PufferServer> server_;
  std::thread thread_;
};

TEST(PufferServer, ConcurrentClientsAreBitIdenticalToDirectRun) {
  ServeConfig cfg;
  cfg.spool_dir = temp_dir("serve_e2e_conc").string();
  cfg.max_running = 2;
  ServerFixture server(cfg, "serve_e2e_conc.sock");

  // Two clients submit the same job concurrently; both sessions run
  // under split worker leases and must reproduce the direct result.
  auto run_client = [&](int idx, std::uint64_t* checksum,
                        std::vector<TelemetryRound>* rounds) {
    ServeClient client(server.address(), 10.0,
                       "client-" + std::to_string(idx));
    const ServeEvent ack = client.submit(small_job("conc"));
    ASSERT_EQ(ack.type, ServeMsgType::kSubmitAck);
    const std::uint64_t sid = ack.ack.session_id;
    const SnapshotMsg snap = client.subscribe(sid);
    for (const TelemetryRound& t : snap.history) rounds->push_back(t);
    if (!snap.has_summary) {
      const DoneMsg done = client.wait_done(sid, rounds);
      ASSERT_EQ(done.summary.state,
                static_cast<std::uint8_t>(SessionState::kDone));
    }
    const ServeEvent result = client.fetch(sid);
    ASSERT_EQ(result.type, ServeMsgType::kResult);
    *checksum = result.result.checksum;
  };

  std::uint64_t sum1 = 0, sum2 = 0;
  std::vector<TelemetryRound> rounds1, rounds2;
  std::thread t1(run_client, 1, &sum1, &rounds1);
  std::thread t2(run_client, 2, &sum2, &rounds2);
  t1.join();
  t2.join();

  EXPECT_EQ(sum1, direct_reference().checksum);
  EXPECT_EQ(sum2, direct_reference().checksum);

  // Snapshot-on-subscribe + streamed deltas together reconstruct the
  // full round history, bit-identical to the direct run's.
  const auto& want = direct_reference().rounds;
  for (const auto* rounds : {&rounds1, &rounds2}) {
    ASSERT_EQ(rounds->size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*rounds)[i].round, want[i].round);
      EXPECT_EQ((*rounds)[i].est_overflow_pct, want[i].est_overflow_pct);
      EXPECT_EQ((*rounds)[i].hpwl, want[i].hpwl);
      EXPECT_EQ((*rounds)[i].tile, want[i].tile);
    }
  }
}

TEST(PufferServer, PerConnectionCapAndDetachReattach) {
  ServeConfig cfg;
  cfg.spool_dir = temp_dir("serve_e2e_cap").string();
  cfg.max_running = 1;
  cfg.per_conn_inflight = 1;
  ServerFixture server(cfg, "serve_e2e_cap.sock");

  ServeClient client(server.address());
  const ServeEvent ack = client.submit(small_job("first"));
  ASSERT_EQ(ack.type, ServeMsgType::kSubmitAck);
  const std::uint64_t sid = ack.ack.session_id;

  // Same connection, second in-flight job: explicit per-conn rejection.
  const ServeEvent rej = client.submit(small_job("second"));
  ASSERT_EQ(rej.type, ServeMsgType::kRejected);
  EXPECT_EQ(rej.rejected.reason,
            static_cast<std::uint8_t>(RejectReason::kPerConnCap));

  // Subscribe, then detach: the ack is a barrier, after which no more
  // frames for the session arrive on this connection.
  (void)client.subscribe(sid);
  (void)client.detach(sid);

  // Re-attach from a *new* connection (the session outlives its
  // submitter) and ride it to completion.
  ServeClient watcher(server.address(), 10.0, "watcher");
  std::vector<TelemetryRound> rounds;
  const SnapshotMsg snap = watcher.subscribe(sid);
  for (const TelemetryRound& t : snap.history) rounds.push_back(t);
  SessionSummary summary;
  if (snap.has_summary) {
    summary = snap.summary;
  } else {
    summary = watcher.wait_done(sid, &rounds).summary;
  }
  EXPECT_EQ(summary.state, static_cast<std::uint8_t>(SessionState::kDone));
  EXPECT_EQ(summary.checksum, direct_reference().checksum);

  // Snapshot + deltas reconstruct the full history exactly once each.
  const auto& want = direct_reference().rounds;
  ASSERT_EQ(rounds.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rounds[i].round, want[i].round);
    EXPECT_EQ(rounds[i].hpwl, want[i].hpwl);
  }

  // A subscribe after completion yields a terminal snapshot whose
  // history matches what was streamed live.
  const SnapshotMsg after = watcher.subscribe(sid);
  EXPECT_EQ(after.state, static_cast<std::uint8_t>(SessionState::kDone));
  ASSERT_EQ(after.has_summary, 1);
  EXPECT_EQ(after.summary.checksum, direct_reference().checksum);
  ASSERT_EQ(after.history.size(), rounds.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(after.history[i].hpwl, rounds[i].hpwl);
    EXPECT_EQ(after.history[i].tile, rounds[i].tile);
  }
}

TEST(PufferServer, DrainDoesNotWaitForAClientThatStoppedReading) {
  ServeConfig cfg;
  cfg.spool_dir = temp_dir("serve_e2e_drain").string();
  const std::string address =
      (std::filesystem::temp_directory_path() / "serve_e2e_drain.sock")
          .string();
  PufferServer server(address, cfg);
  std::future<void> run =
      std::async(std::launch::async, [&server] { server.run(); });

  // A client pipelines queries and reads no reply: the replies fill its
  // socket, and the rest stays queued in the daemon.
  const int fd = connect_socket_retry(address, 10.0);
  send_serve_msg(fd, ServeMsgType::kClientHello,
                 encode_client_hello(ClientHelloMsg{}));
  const std::string query = encode_session_ref(SessionRefMsg{});
  for (int i = 0; i < 4000; ++i) {
    send_serve_msg(fd, ServeMsgType::kQuery, query);
  }

  server.request_drain();
  EXPECT_EQ(run.wait_for(std::chrono::seconds(20)),
            std::future_status::ready)
      << "the drain waited on a client that stopped reading";
  // Closing the client ends a drain that waits on it, so a failure ends
  // here instead of hanging the suite.
  ::close(fd);
  run.get();
}

TEST(PufferServer, MalformedTrafficIsRejectedWithoutTakingTheDaemonDown) {
  ServeConfig cfg;
  cfg.spool_dir = temp_dir("serve_e2e_malformed").string();
  ServerFixture server(cfg, "serve_e2e_malformed.sock");

  // 1) Corrupt framing: the daemon closes the connection.
  {
    const int fd = connect_socket_retry(server.address(), 10.0);
    const std::string garbage = "this is not a PUFM frame at all........";
    ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
              static_cast<ssize_t>(garbage.size()));
    WireFrame frame;
    EXPECT_FALSE(read_frame_fd(fd, &frame));  // clean EOF: peer closed
    ::close(fd);
  }

  // 2) Well-framed junk body: kError reply, connection stays usable...
  {
    const int fd = connect_socket_retry(server.address(), 10.0);
    ClientHelloMsg hello;
    send_serve_msg(fd, ServeMsgType::kClientHello,
                   encode_client_hello(hello));
    WireFrame frame;
    ASSERT_TRUE(read_frame_fd(fd, &frame));
    ASSERT_EQ(frame.type,
              static_cast<std::uint32_t>(ServeMsgType::kServerHello));
    send_serve_msg(fd, ServeMsgType::kSubscribe, "junk body");
    ASSERT_TRUE(read_frame_fd(fd, &frame));
    EXPECT_EQ(frame.type, static_cast<std::uint32_t>(ServeMsgType::kError));
    // ...including for unknown message types.
    send_serve_msg(fd, static_cast<ServeMsgType>(999), "");
    ASSERT_TRUE(read_frame_fd(fd, &frame));
    EXPECT_EQ(frame.type, static_cast<std::uint32_t>(ServeMsgType::kError));
    ::close(fd);
  }

  // 3) Requests before the hello are refused.
  {
    const int fd = connect_socket_retry(server.address(), 10.0);
    SessionRefMsg ref;
    ref.session_id = 1;
    send_serve_msg(fd, ServeMsgType::kQuery, encode_session_ref(ref));
    WireFrame frame;
    ASSERT_TRUE(read_frame_fd(fd, &frame));
    EXPECT_EQ(frame.type, static_cast<std::uint32_t>(ServeMsgType::kError));
    ::close(fd);
  }

  // The daemon still serves a well-behaved client.
  ServeClient client(server.address());
  const ServeEvent status = client.query(0);
  ASSERT_EQ(status.type, ServeMsgType::kStatus);
  EXPECT_EQ(status.status.queued, 0);
  const ServeEvent err = client.fetch(12345);  // unknown session
  EXPECT_EQ(err.type, ServeMsgType::kError);
}

}  // namespace
}  // namespace puffer
