// Coordinator/worker wire protocol for distributed trial orchestration.
//
// Messages ride the length-prefixed frames of io/checkpoint.h
// (write_frame_fd / read_frame_fd: magic, wire version, type, body,
// FNV-1a trailer) over a Unix-domain or TCP socket; message bodies are
// encoded with the same BinaryWriter/Reader codec as the checkpoint
// files, so every double crosses the wire as its IEEE-754 bit pattern
// and results fold bit-identically to an in-process run.
//
// Handshake and lifecycle (see docs/architecture.md for the full table):
//
//   worker                          coordinator
//   ------                          -----------
//   Hello(design_key)         --->
//                             <---  HelloAck(keys, base config)
//                             <---  Snapshot(encode_snapshot bytes)
//   Ready                     --->
//                             <---  TrialAssign(trial, akey, x, pruner)
//   TrialResult(...)          --->
//                ... more assignments ...
//                             <---  Shutdown
//
// Either side may send Error(message) and close. The coordinator counts
// a worker as attached, and assigns it trials, only after its Ready. A
// worker that dies mid-trial shows up as a closed connection; the
// coordinator requeues the trial for the surviving workers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "io/net.h"

namespace puffer {

// Protocol (message-schema) version, checked in Hello/HelloAck on top of
// the per-frame wire version.
constexpr std::uint32_t kOrchProtocolVersion = 4;

enum class MsgType : std::uint32_t {
  kHello = 1,
  kHelloAck = 2,
  kSnapshot = 3,
  kTrialAssign = 4,
  kTrialResult = 5,
  kShutdown = 6,
  kError = 7,
  kReady = 8,  // empty body: the worker holds the prefix snapshot
};

struct HelloMsg {
  std::uint32_t protocol_version = kOrchProtocolVersion;
  // Structure key of the design the worker loaded; the coordinator
  // refuses workers holding a different design.
  std::uint64_t design_key = 0;
  std::string worker_name;
};

struct HelloAckMsg {
  std::uint32_t protocol_version = kOrchProtocolVersion;
  // Keys of the snapshot that follows; the worker checks them against
  // the snapshot's own.
  std::uint64_t design_key = 0;
  std::uint64_t prefix_key = 0;
  // Strategy-relevant base PufferConfig as config_io text; the worker
  // applies it over its binary defaults so both sides evaluate trials
  // from the same base strategy.
  std::string base_config_text;
};

struct TrialAssignMsg {
  std::int32_t trial_id = -1;
  std::uint64_t akey = 0;  // assignment_key(assignment), verified by worker
  std::vector<double> assignment;
  // Batch-frozen prune thresholds (encode_prune_thresholds), empty when
  // pruning is off.
  std::string pruner_blob;
};

struct TrialResultMsg {
  std::int32_t trial_id = -1;
  std::uint64_t akey = 0;
  double loss = 0.0;
  std::uint8_t pruned = 0;
  std::int32_t prune_round = -1;
  std::uint64_t checksum = 0;
  std::vector<double> rounds;  // per-rung overflow trail (bit-exact)
  double wall_s = 0.0;         // session wall time (utilization accounting)
};

struct ErrorMsg {
  std::string message;
};

// Body codecs. decode_* throw CheckpointError on malformed input
// (truncation, trailing bytes).
std::string encode_hello(const HelloMsg& m);
HelloMsg decode_hello(const std::string& body);
std::string encode_hello_ack(const HelloAckMsg& m);
HelloAckMsg decode_hello_ack(const std::string& body);
std::string encode_trial_assign(const TrialAssignMsg& m);
TrialAssignMsg decode_trial_assign(const std::string& body);
std::string encode_trial_result(const TrialResultMsg& m);
TrialResultMsg decode_trial_result(const std::string& body);
std::string encode_error(const ErrorMsg& m);
ErrorMsg decode_error(const std::string& body);

// Typed blocking frame send (the worker side).
void send_msg(int fd, MsgType type, const std::string& body);

}  // namespace puffer
