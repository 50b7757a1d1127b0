// Distributed-orchestration wire tests: stream-backed checkpoint frames
// (round-trip over socketpair/pipe, truncation and corrupted-FNV
// rejection), the non-blocking FrameServer, message codecs, the
// prune-thresholds wire codec, the worker's rejection of a snapshot-key
// mismatch and of an assignment of the wrong length, and
// coordinator/worker end-to-end runs (bit-identity with the in-process
// scheduler, trial reassignment after a worker dies mid-trial, a worker
// re-attaching after its coordinator is lost, peers that connect and
// stall or never read).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"
#include "orchestrate/coordinator.h"
#include "orchestrate/orchestrator.h"
#include "orchestrate/protocol.h"
#include "orchestrate/pruner.h"
#include "orchestrate/worker.h"

namespace puffer {
namespace {

class ProtocolTest : public ::testing::Test {
 protected:
  ~ProtocolTest() override { par::set_num_threads(0); }
};

// Paired fds whose lifetime is scoped to the test body.
struct FdPair {
  int a = -1, b = -1;
  FdPair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    a = sv[0];
    b = sv[1];
  }
  ~FdPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void close_a() {
    ::close(a);
    a = -1;
  }
};

SyntheticSpec tiny_spec() {
  SyntheticSpec spec;
  spec.name = "proto";
  spec.seed = 91;
  spec.num_cells = 300;
  spec.num_nets = 450;
  spec.num_macros = 2;
  spec.target_utilization = 0.78;
  spec.v_capacity_factor = 0.55;
  return spec;
}

ExperimentConfig tiny_experiment_config() {
  ExperimentConfig cfg;
  cfg.puffer.gp.max_iters = 250;
  cfg.puffer.padding.xi = 3;
  return cfg;
}

OrchestratorConfig tiny_orch_config() {
  OrchestratorConfig cfg;
  cfg.trials = 4;
  cfg.batch_size = 2;
  cfg.concurrency = 2;
  cfg.fork_overflow = 0.45;
  cfg.seed = 4242;
  cfg.tpe.n_startup = 3;
  return cfg;
}

std::string temp_socket(const char* leaf) {
  const auto path = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::remove(path);
  return path.string();
}

// --- stream frames --------------------------------------------------------

TEST_F(ProtocolTest, FrameRoundTripOverSocketpair) {
  FdPair fds;
  const std::string small = "hello";
  std::string big(100000, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 2654435761u >> 13);
  }
  // Writer thread: socket buffers are smaller than `big`, so the write
  // must interleave with the read side.
  std::thread writer([&] {
    write_frame_fd(fds.a, 1, small);
    write_frame_fd(fds.a, 2, big);
    write_frame_fd(fds.a, 3, std::string());  // empty body
    fds.close_a();                            // clean EOF
  });
  WireFrame f;
  ASSERT_TRUE(read_frame_fd(fds.b, &f));
  EXPECT_EQ(f.type, 1u);
  EXPECT_EQ(f.body, small);
  ASSERT_TRUE(read_frame_fd(fds.b, &f));
  EXPECT_EQ(f.type, 2u);
  EXPECT_EQ(f.body, big);
  ASSERT_TRUE(read_frame_fd(fds.b, &f));
  EXPECT_EQ(f.type, 3u);
  EXPECT_TRUE(f.body.empty());
  EXPECT_FALSE(read_frame_fd(fds.b, &f));  // EOF at a frame boundary
  writer.join();
}

TEST_F(ProtocolTest, FrameRoundTripOverPipe) {
  int pfd[2];
  ASSERT_EQ(::pipe(pfd), 0);
  write_frame_fd(pfd[1], 7, "pipe payload");
  ::close(pfd[1]);
  WireFrame f;
  ASSERT_TRUE(read_frame_fd(pfd[0], &f));
  EXPECT_EQ(f.type, 7u);
  EXPECT_EQ(f.body, "pipe payload");
  EXPECT_FALSE(read_frame_fd(pfd[0], &f));
  ::close(pfd[0]);
}

TEST_F(ProtocolTest, TruncatedFrameRejected) {
  // EOF inside the header (after the first byte) and EOF inside the body
  // are both corruption, not clean shutdown.
  const std::string bytes = encode_frame(4, "truncated body victim");
  for (const std::size_t keep : {1ul, 10ul, bytes.size() - 1}) {
    FdPair fds;
    ASSERT_EQ(::write(fds.a, bytes.data(), keep),
              static_cast<ssize_t>(keep));
    fds.close_a();
    WireFrame f;
    EXPECT_THROW(read_frame_fd(fds.b, &f), CheckpointError) << keep;
  }
}

TEST_F(ProtocolTest, CorruptedChecksumRejected) {
  std::string bytes = encode_frame(4, "checksummed payload");
  bytes[bytes.size() / 2] ^= 0x40;  // flip a body bit
  FdPair fds;
  ASSERT_EQ(::write(fds.a, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  fds.close_a();
  WireFrame f;
  EXPECT_THROW(read_frame_fd(fds.b, &f), CheckpointError);
}

TEST_F(ProtocolTest, BadMagicRejected) {
  std::string bytes = encode_frame(4, "payload");
  bytes[0] ^= 0xff;
  FdPair fds;
  ASSERT_EQ(::write(fds.a, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  fds.close_a();
  WireFrame f;
  EXPECT_THROW(read_frame_fd(fds.b, &f), CheckpointError);
}

// --- FrameServer ----------------------------------------------------------

TEST(FrameServer, PeerThatNeverReadsBlocksNeitherSendNorOtherPeers) {
  const std::string address = temp_socket("puffer_frame_server.sock");
  std::vector<std::pair<FrameServer::ConnId, WireFrame>> got;
  FrameServer* self = nullptr;
  FrameServer server(
      address,
      [&](FrameServer::ConnId id, const WireFrame& frame) {
        got.emplace_back(id, frame);
        self->send(id, 2, "answer to " + frame.body);
      },
      [](FrameServer::ConnId, const std::string&) {});
  self = &server;

  // The deaf peer says one thing and never reads again.
  const int deaf = connect_socket(address);
  write_frame_fd(deaf, 1, "deaf");
  for (int i = 0; i < 50 && got.empty(); ++i) server.poll(100);
  ASSERT_EQ(got.size(), 1u);
  const FrameServer::ConnId deaf_id = got[0].first;

  // 4 MiB of frames to it: far more than its socket holds, so send()
  // would have to wait for the peer if it could block.
  const std::string chunk(64 << 10, 'x');
  for (int i = 0; i < 64; ++i) server.send(deaf_id, 3, chunk);
  EXPECT_GT(server.unsent(), 3u << 20);

  // A second peer's frame is delivered and answered in one poll() call.
  const int other = connect_socket(address);
  timeval timeout{};
  timeout.tv_sec = 10;  // a missing answer fails the read, not the suite
  ASSERT_EQ(::setsockopt(other, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  write_frame_fd(other, 1, "other");
  server.poll(5000);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[1].first, deaf_id);
  EXPECT_EQ(got[1].second.body, "other");
  WireFrame answer;
  ASSERT_TRUE(read_frame_fd(other, &answer));
  EXPECT_EQ(answer.type, 2u);
  EXPECT_EQ(answer.body, "answer to other");
  EXPECT_GT(server.unsent(), 3u << 20);  // still queued for the deaf peer
  ::close(deaf);
  ::close(other);
}

TEST(FrameServer, HandlesTheFramesAPeerSentBeforeItHungUp) {
  const std::string address = temp_socket("puffer_frame_hangup.sock");
  std::vector<std::string> events;
  FrameServer server(
      address,
      [&](FrameServer::ConnId, const WireFrame& frame) {
        events.push_back("frame " + frame.body);
      },
      [&](FrameServer::ConnId, const std::string& why) {
        events.push_back("closed: " + why);
      });
  const int fd = connect_socket(address);
  write_frame_fd(fd, 1, "first");
  write_frame_fd(fd, 1, "last words");
  ::close(fd);
  for (int i = 0; i < 50 && events.size() < 3; ++i) server.poll(100);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "frame first");
  EXPECT_EQ(events[1], "frame last words");
  EXPECT_EQ(events[2], "closed: connection closed");
}

// --- message codecs -------------------------------------------------------

TEST_F(ProtocolTest, HelloRoundTrip) {
  HelloMsg m;
  m.design_key = 0xdeadbeefcafef00dull;
  m.worker_name = "w-7";
  const HelloMsg d = decode_hello(encode_hello(m));
  EXPECT_EQ(d.protocol_version, kOrchProtocolVersion);
  EXPECT_EQ(d.design_key, m.design_key);
  EXPECT_EQ(d.worker_name, m.worker_name);
}

TEST_F(ProtocolTest, HelloAckRoundTrip) {
  HelloAckMsg m;
  m.design_key = 11;
  m.prefix_key = 22;
  m.base_config_text = "gp.max_iters = 250\n";
  const HelloAckMsg d = decode_hello_ack(encode_hello_ack(m));
  EXPECT_EQ(d.protocol_version, kOrchProtocolVersion);
  EXPECT_EQ(d.design_key, 11u);
  EXPECT_EQ(d.prefix_key, 22u);
  EXPECT_EQ(d.base_config_text, m.base_config_text);
}

TEST_F(ProtocolTest, TrialMessagesRoundTripBitExact) {
  TrialAssignMsg a;
  a.trial_id = 17;
  a.assignment = {0.1, -0.0, 3.5e-320, 1.0 / 3.0};  // subnormal included
  a.akey = 0x1234;
  a.pruner_blob = std::string("\x00\x01\xff", 3);
  const TrialAssignMsg da = decode_trial_assign(encode_trial_assign(a));
  EXPECT_EQ(da.trial_id, 17);
  EXPECT_EQ(da.akey, 0x1234u);
  ASSERT_EQ(da.assignment.size(), a.assignment.size());
  for (std::size_t i = 0; i < a.assignment.size(); ++i) {
    EXPECT_EQ(std::memcmp(&da.assignment[i], &a.assignment[i], 8), 0) << i;
  }
  EXPECT_EQ(da.pruner_blob, a.pruner_blob);

  TrialResultMsg r;
  r.trial_id = 17;
  r.akey = 0x1234;
  r.loss = 2.0111091837465;
  r.pruned = 1;
  r.prune_round = 3;
  r.checksum = 0x8d5b9e7465871f06ull;
  r.rounds = {0.9, 0.5, 0.30000000000000004};
  r.wall_s = 1.25;
  const TrialResultMsg dr = decode_trial_result(encode_trial_result(r));
  EXPECT_EQ(std::memcmp(&dr.loss, &r.loss, 8), 0);
  EXPECT_EQ(dr.pruned, 1);
  EXPECT_EQ(dr.prune_round, 3);
  EXPECT_EQ(dr.checksum, r.checksum);
  ASSERT_EQ(dr.rounds.size(), 3u);
  EXPECT_EQ(std::memcmp(&dr.rounds[2], &r.rounds[2], 8), 0);
  EXPECT_EQ(dr.wall_s, r.wall_s);
}

TEST_F(ProtocolTest, TrailingBytesRejected) {
  ErrorMsg e;
  e.message = "boom";
  EXPECT_EQ(decode_error(encode_error(e)).message, "boom");
  EXPECT_THROW(decode_error(encode_error(e) + "x"), CheckpointError);
  HelloMsg h;
  EXPECT_THROW(decode_hello(encode_hello(h) + "junk"), CheckpointError);
  EXPECT_THROW(decode_trial_assign(std::string("short")), CheckpointError);
}

TEST_F(ProtocolTest, PruneThresholdsRoundTrip) {
  PruneConfig cfg;
  cfg.enabled = true;
  cfg.grace_rounds = 1;
  cfg.min_history = 3;
  cfg.quantile = 0.5;
  PruneThresholds t(validate_prune_config(cfg));
  t.observe({0.9, 0.5, 0.3});
  t.observe({0.8, 0.6, 0.4});
  t.observe({0.7, 0.4, 0.2});
  const PruneThresholds d = decode_prune_thresholds(encode_prune_thresholds(t));
  EXPECT_EQ(d.trails_observed(), 3);
  EXPECT_EQ(d.config().min_history, 3);
  // Decisions agree with the original on both sides of the threshold.
  for (int round = 0; round < 4; ++round) {
    for (double v : {0.1, 0.35, 0.45, 0.55, 0.9, 2.0}) {
      EXPECT_EQ(d.should_prune(round, v), t.should_prune(round, v))
          << round << " " << v;
    }
  }
  EXPECT_EQ(d.penalty_loss(0.5), t.penalty_loss(0.5));
  EXPECT_THROW(decode_prune_thresholds(std::string("garbage")),
               CheckpointError);
}

// --- worker handshake -----------------------------------------------------

// Plays the coordinator's side of an attach over `fd` for a worker
// holding `design`: checks its hello, announces prefix key 777 and sends
// a snapshot whose own prefix key is `snapshot_prefix`.
void attach_worker(int fd, const Design& design,
                   std::uint64_t snapshot_prefix) {
  const std::uint64_t dkey = design_structure_key(design);
  WireFrame f;
  ASSERT_TRUE(read_frame_fd(fd, &f));
  EXPECT_EQ(decode_hello(f.body).design_key, dkey);

  HelloAckMsg ack;
  ack.design_key = dkey;
  ack.prefix_key = 777;
  send_msg(fd, MsgType::kHelloAck, encode_hello_ack(ack));
  FlowSnapshot snap;
  snap.design_key = dkey;
  snap.prefix_key = snapshot_prefix;
  snap.x.assign(design.cells.size(), 0.0);
  snap.y.assign(design.cells.size(), 0.0);
  send_msg(fd, MsgType::kSnapshot, encode_snapshot(snap));
}

TEST_F(ProtocolTest, WorkerRejectsSnapshotKeyMismatch) {
  const Design design = generate_synthetic(tiny_spec());
  const ExperimentConfig base = tiny_experiment_config();

  FdPair fds;
  bool served = true;
  std::thread worker([&] {
    served = serve_coordinator(fds.b, design, base, "t");
  });
  // The snapshot's own keys disagree with the announced prefix: the
  // worker must refuse to fork trials from it.
  attach_worker(fds.a, design, 778);

  WireFrame f;
  ASSERT_TRUE(read_frame_fd(fds.a, &f));
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(MsgType::kError));
  EXPECT_NE(decode_error(f.body).message.find("snapshot key mismatch"),
            std::string::npos);
  worker.join();
  EXPECT_FALSE(served);
}

TEST_F(ProtocolTest, WorkerRejectsAssignmentOfWrongLength) {
  const Design design = generate_synthetic(tiny_spec());
  const ExperimentConfig base = tiny_experiment_config();

  FdPair fds;
  bool served = true;
  std::thread worker([&] {
    served = serve_coordinator(fds.b, design, base, "t");
  });
  attach_worker(fds.a, design, 777);
  WireFrame f;
  ASSERT_TRUE(read_frame_fd(fds.a, &f));
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(MsgType::kReady));

  // Three values where the worker applies 17, under their own correct
  // key: refused before any value is applied.
  TrialAssignMsg assign;
  assign.trial_id = 0;
  assign.assignment = {0.5, 0.5, 0.5};
  assign.akey = assignment_key(assign.assignment);
  send_msg(fds.a, MsgType::kTrialAssign, encode_trial_assign(assign));

  EXPECT_TRUE(read_frame_fd(fds.a, &f));
  fds.close_a();
  worker.join();
  EXPECT_FALSE(served);
  ASSERT_EQ(f.type, static_cast<std::uint32_t>(MsgType::kError));
  EXPECT_NE(decode_error(f.body).message.find("holds 3 values, expected 17"),
            std::string::npos);
}

// --- end-to-end -----------------------------------------------------------

TEST_F(ProtocolTest, DistributedMatchesInProcessBitExactly) {
  // In-process reference.
  OrchestrationResult ref;
  {
    Design d = generate_synthetic(tiny_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), tiny_experiment_config(),
                           tiny_orch_config());
    ref = orch.run();
  }

  // Same exploration, trials evaluated by two worker "processes"
  // (threads here; the binary is exercised by scripts/kill_worker_smoke).
  const std::string address = temp_socket("puffer_proto_e2e.sock");
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&address, w] {
      Design d = generate_synthetic(tiny_spec());
      WorkerConfig cfg;
      cfg.connect = address;
      cfg.name = "t-worker-" + std::to_string(w);
      cfg.connect_timeout_s = 60.0;
      EXPECT_EQ(run_worker(d, tiny_experiment_config(), cfg), 0);
    });
  }

  Design d = generate_synthetic(tiny_spec());
  CoordinatorConfig coord;
  coord.listen = address;
  coord.min_workers = 2;
  coord.attach_timeout_s = 60.0;
  const OrchestrationResult dist = run_distributed_orchestration(
      d, puffer_param_specs(), tiny_experiment_config(), tiny_orch_config(),
      coord);
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(dist.best_trial, ref.best_trial);
  EXPECT_EQ(std::memcmp(&dist.best_loss, &ref.best_loss, 8), 0);
  EXPECT_EQ(dist.best, ref.best);
  EXPECT_EQ(dist.best_checksum, ref.best_checksum);
  ASSERT_EQ(dist.observations.size(), ref.observations.size());
  for (std::size_t i = 0; i < ref.observations.size(); ++i) {
    EXPECT_EQ(std::memcmp(&dist.observations[i].loss,
                          &ref.observations[i].loss, 8), 0)
        << i;
  }
}

// With no worker ever attaching, the coordinator waits attach_timeout_s
// per batch and then evaluates the batch itself: every trial runs
// in-process, with the same results as the local executor.
TEST_F(ProtocolTest, NoWorkerFallsBackToInProcessTrials) {
  OrchestrationResult ref;
  {
    Design d = generate_synthetic(tiny_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), tiny_experiment_config(),
                           tiny_orch_config());
    LocalTrialExecutor local(tiny_orch_config().concurrency);
    ref = orch.run(local);
  }

  Design d = generate_synthetic(tiny_spec());
  TrialOrchestrator orchestrator(d, puffer_param_specs(),
                                 tiny_experiment_config(), tiny_orch_config());
  CoordinatorConfig coord;
  coord.listen = temp_socket("puffer_proto_no_worker.sock");
  coord.min_workers = 1;
  coord.attach_timeout_s = 0.2;
  CoordinatorExecutor executor(coord);
  const OrchestrationResult dist = orchestrator.run(executor);
  EXPECT_EQ(executor.workers_attached(), 0);
  EXPECT_EQ(executor.trials_in_process(), tiny_orch_config().trials);
  EXPECT_EQ(executor.trials_reassigned(), 0);

  EXPECT_EQ(dist.best_trial, ref.best_trial);
  EXPECT_EQ(std::memcmp(&dist.best_loss, &ref.best_loss, 8), 0);
  EXPECT_EQ(dist.best, ref.best);
  EXPECT_EQ(dist.best_checksum, ref.best_checksum);
  ASSERT_EQ(dist.observations.size(), ref.observations.size());
  for (std::size_t i = 0; i < ref.observations.size(); ++i) {
    EXPECT_EQ(std::memcmp(&dist.observations[i].loss,
                          &ref.observations[i].loss, 8), 0)
        << i;
  }
}

TEST_F(ProtocolTest, WorkerDeathMidTrialReassigned) {
  // In-process reference.
  OrchestrationResult ref;
  {
    Design d = generate_synthetic(tiny_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), tiny_experiment_config(),
                           tiny_orch_config());
    ref = orch.run();
  }

  const std::string address = temp_socket("puffer_proto_death.sock");

  // A faulty worker: handshakes, accepts ONE assignment, then vanishes
  // without reporting -- the mid-trial death the coordinator must absorb.
  std::thread faulty([&address] {
    Design d = generate_synthetic(tiny_spec());
    const int fd = connect_socket_retry(address, 60.0);
    HelloMsg hello;
    hello.design_key = design_structure_key(d);
    hello.worker_name = "faulty";
    send_msg(fd, MsgType::kHello, encode_hello(hello));
    WireFrame f;
    ASSERT_TRUE(read_frame_fd(fd, &f));  // HelloAck
    ASSERT_TRUE(read_frame_fd(fd, &f));  // Snapshot
    send_msg(fd, MsgType::kReady, std::string());
    ASSERT_TRUE(read_frame_fd(fd, &f));  // first TrialAssign
    EXPECT_EQ(f.type, static_cast<std::uint32_t>(MsgType::kTrialAssign));
    ::close(fd);  // die mid-trial
  });
  // A healthy worker that finishes the run.
  std::thread healthy([&address] {
    Design d = generate_synthetic(tiny_spec());
    WorkerConfig cfg;
    cfg.connect = address;
    cfg.name = "healthy";
    cfg.connect_timeout_s = 60.0;
    EXPECT_EQ(run_worker(d, tiny_experiment_config(), cfg), 0);
  });

  Design d = generate_synthetic(tiny_spec());
  TrialOrchestrator orchestrator(d, puffer_param_specs(),
                                 tiny_experiment_config(), tiny_orch_config());
  CoordinatorConfig coord;
  coord.listen = address;
  coord.min_workers = 2;
  coord.attach_timeout_s = 60.0;
  CoordinatorExecutor executor(coord);
  const OrchestrationResult dist = orchestrator.run(executor);
  EXPECT_GE(executor.trials_reassigned(), 1);
  executor.shutdown_workers();
  faulty.join();
  healthy.join();

  // Identical exploration despite the death.
  EXPECT_EQ(dist.best_trial, ref.best_trial);
  EXPECT_EQ(std::memcmp(&dist.best_loss, &ref.best_loss, 8), 0);
  EXPECT_EQ(dist.best_checksum, ref.best_checksum);
}

TEST_F(ProtocolTest, WorkerReattachesAfterCoordinatorLoss) {
  OrchestrationResult ref;
  {
    Design d = generate_synthetic(tiny_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), tiny_experiment_config(),
                           tiny_orch_config());
    ref = orch.run();
  }

  const std::string address = temp_socket("puffer_proto_reattach.sock");
  Design d = generate_synthetic(tiny_spec());
  const std::uint64_t dkey = design_structure_key(d);
  std::thread worker;
  {
    // A stand-in coordinator ships a snapshot of another prefix and,
    // once the worker is ready, hangs up without kShutdown: a
    // coordinator that died before assigning any trial.
    FlowSnapshot other_prefix;
    other_prefix.design_key = dkey;
    other_prefix.prefix_key = 1;
    other_prefix.x.assign(d.cells.size(), 0.0);
    other_prefix.y.assign(d.cells.size(), 0.0);
    bool ready = false;
    FrameServer* self = nullptr;
    FrameServer standin(
        address,
        [&](FrameServer::ConnId id, const WireFrame& frame) {
          if (frame.type == static_cast<std::uint32_t>(MsgType::kHello)) {
            EXPECT_EQ(decode_hello(frame.body).design_key, dkey);
            HelloAckMsg ack;
            ack.design_key = dkey;
            ack.prefix_key = other_prefix.prefix_key;
            self->send(id, static_cast<std::uint32_t>(MsgType::kHelloAck),
                       encode_hello_ack(ack));
            self->send(id, static_cast<std::uint32_t>(MsgType::kSnapshot),
                       encode_snapshot(other_prefix));
          } else if (frame.type ==
                     static_cast<std::uint32_t>(MsgType::kReady)) {
            ready = true;
            self->close(id);
          }
        },
        [](FrameServer::ConnId, const std::string&) {});
    self = &standin;
    worker = std::thread([&address] {
      Design wd = generate_synthetic(tiny_spec());
      WorkerConfig cfg;
      cfg.connect = address;
      cfg.name = "returning";
      cfg.connect_timeout_s = 60.0;
      cfg.reconnect_timeout_s = 60.0;
      EXPECT_EQ(run_worker(wd, tiny_experiment_config(), cfg), 0);
    });
    for (int i = 0; i < 600 && !ready; ++i) standin.poll(100);
    EXPECT_TRUE(ready);
  }  // the stand-in's sockets close here

  // The real exploration on the same address: the worker re-attaches,
  // takes this coordinator's snapshot, and evaluates every trial.
  TrialOrchestrator orchestrator(d, puffer_param_specs(),
                                 tiny_experiment_config(), tiny_orch_config());
  CoordinatorConfig coord;
  coord.listen = address;
  coord.min_workers = 1;
  coord.attach_timeout_s = 60.0;
  CoordinatorExecutor executor(coord);
  const OrchestrationResult dist = orchestrator.run(executor);
  EXPECT_EQ(executor.trials_in_process(), 0);
  executor.shutdown_workers();
  worker.join();

  EXPECT_EQ(dist.best_trial, ref.best_trial);
  EXPECT_EQ(std::memcmp(&dist.best_loss, &ref.best_loss, 8), 0);
  EXPECT_EQ(dist.best_checksum, ref.best_checksum);
}

TEST_F(ProtocolTest, SilentPeersDoNotStallTheCoordinator) {
  OrchestrationResult ref;
  {
    Design d = generate_synthetic(tiny_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), tiny_experiment_config(),
                           tiny_orch_config());
    ref = orch.run();
  }

  const std::string address = temp_socket("puffer_proto_silent.sock");
  Design d = generate_synthetic(tiny_spec());
  TrialOrchestrator orchestrator(d, puffer_param_specs(),
                                 tiny_experiment_config(), tiny_orch_config());
  CoordinatorConfig coord;
  coord.listen = address;
  coord.min_workers = 1;
  coord.attach_timeout_s = 60.0;
  CoordinatorExecutor executor(coord);  // listening from here on

  // Two stalled peers queue ahead of the healthy worker: one connects and
  // never sends a byte, one sends half a Hello and stops.
  const int silent = connect_socket(address);
  const int half = connect_socket(address);
  HelloMsg hello;
  hello.design_key = design_structure_key(d);
  hello.worker_name = "half";
  const std::string frame = encode_frame(
      static_cast<std::uint32_t>(MsgType::kHello), encode_hello(hello));
  ASSERT_EQ(::write(half, frame.data(), frame.size() / 2),
            static_cast<ssize_t>(frame.size() / 2));
  std::thread healthy([&address] {
    Design wd = generate_synthetic(tiny_spec());
    WorkerConfig cfg;
    cfg.connect = address;
    cfg.name = "healthy";
    cfg.connect_timeout_s = 60.0;
    EXPECT_EQ(run_worker(wd, tiny_experiment_config(), cfg), 0);
  });

  std::future<OrchestrationResult> run = std::async(
      std::launch::async, [&] { return orchestrator.run(executor); });
  EXPECT_EQ(run.wait_for(std::chrono::seconds(90)), std::future_status::ready)
      << "the coordinator stalled on a peer that sent no whole frame";
  // Closing the stalled peers frees a coordinator blocked reading them,
  // so a failure ends here instead of hanging the suite.
  ::close(silent);
  ::close(half);
  const OrchestrationResult dist = run.get();
  executor.shutdown_workers();
  healthy.join();

  EXPECT_EQ(dist.best_trial, ref.best_trial);
  EXPECT_EQ(std::memcmp(&dist.best_loss, &ref.best_loss, 8), 0);
  EXPECT_EQ(dist.best_checksum, ref.best_checksum);
}

TEST_F(ProtocolTest, PeerThatNeverReadsDoesNotStallTheCoordinator) {
  OrchestrationResult ref;
  {
    Design d = generate_synthetic(tiny_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), tiny_experiment_config(),
                           tiny_orch_config());
    ref = orch.run();
  }

  const std::string address = temp_socket("puffer_proto_deaf.sock");
  Design d = generate_synthetic(tiny_spec());
  TrialOrchestrator orchestrator(d, puffer_param_specs(),
                                 tiny_experiment_config(), tiny_orch_config());
  CoordinatorConfig coord;
  coord.listen = address;
  coord.min_workers = 1;
  coord.attach_timeout_s = 60.0;
  CoordinatorExecutor executor(coord);  // listening from here on

  // Ahead of the healthy worker, a peer sends a valid Hello and then
  // never reads: not its snapshot, not an assignment.
  const int deaf = connect_socket(address);
  HelloMsg hello;
  hello.design_key = design_structure_key(d);
  hello.worker_name = "deaf";
  send_msg(deaf, MsgType::kHello, encode_hello(hello));
  std::thread healthy([&address] {
    Design wd = generate_synthetic(tiny_spec());
    WorkerConfig cfg;
    cfg.connect = address;
    cfg.name = "healthy";
    cfg.connect_timeout_s = 60.0;
    EXPECT_EQ(run_worker(wd, tiny_experiment_config(), cfg), 0);
  });

  std::future<OrchestrationResult> run = std::async(
      std::launch::async, [&] { return orchestrator.run(executor); });
  EXPECT_EQ(run.wait_for(std::chrono::seconds(90)), std::future_status::ready)
      << "the coordinator stalled on a peer that never reads";
  // Closing the deaf peer frees a coordinator waiting on it, so a failure
  // ends here instead of hanging the suite.
  ::close(deaf);
  const OrchestrationResult dist = run.get();
  executor.shutdown_workers();
  healthy.join();

  EXPECT_EQ(dist.best_trial, ref.best_trial);
  EXPECT_EQ(std::memcmp(&dist.best_loss, &ref.best_loss, 8), 0);
  EXPECT_EQ(dist.best_checksum, ref.best_checksum);
}

}  // namespace
}  // namespace puffer
