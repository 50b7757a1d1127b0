#include "orchestrate/protocol.h"

namespace puffer {

namespace {

void finish_decode(const BinaryReader& r, const char* what) {
  if (!r.at_end()) {
    throw CheckpointError(std::string("protocol: trailing bytes after ") +
                          what);
  }
}

}  // namespace

std::string encode_hello(const HelloMsg& m) {
  BinaryWriter w;
  w.put_u32(m.protocol_version);
  w.put_u64(m.design_key);
  w.put_string(m.worker_name);
  return w.take();
}

HelloMsg decode_hello(const std::string& body) {
  BinaryReader r(body);
  HelloMsg m;
  m.protocol_version = r.get_u32();
  m.design_key = r.get_u64();
  m.worker_name = r.get_string();
  finish_decode(r, "hello");
  return m;
}

std::string encode_hello_ack(const HelloAckMsg& m) {
  BinaryWriter w;
  w.put_u32(m.protocol_version);
  w.put_u64(m.design_key);
  w.put_u64(m.prefix_key);
  w.put_string(m.base_config_text);
  return w.take();
}

HelloAckMsg decode_hello_ack(const std::string& body) {
  BinaryReader r(body);
  HelloAckMsg m;
  m.protocol_version = r.get_u32();
  m.design_key = r.get_u64();
  m.prefix_key = r.get_u64();
  m.base_config_text = r.get_string();
  finish_decode(r, "hello_ack");
  return m;
}

std::string encode_trial_assign(const TrialAssignMsg& m) {
  BinaryWriter w;
  w.put_i32(m.trial_id);
  w.put_u64(m.akey);
  w.put_f64_vec(m.assignment);
  w.put_string(m.pruner_blob);
  return w.take();
}

TrialAssignMsg decode_trial_assign(const std::string& body) {
  BinaryReader r(body);
  TrialAssignMsg m;
  m.trial_id = r.get_i32();
  m.akey = r.get_u64();
  m.assignment = r.get_f64_vec();
  m.pruner_blob = r.get_string();
  finish_decode(r, "trial_assign");
  return m;
}

std::string encode_trial_result(const TrialResultMsg& m) {
  BinaryWriter w;
  w.put_i32(m.trial_id);
  w.put_u64(m.akey);
  w.put_f64(m.loss);
  w.put_u8(m.pruned);
  w.put_i32(m.prune_round);
  w.put_u64(m.checksum);
  w.put_f64_vec(m.rounds);
  w.put_f64(m.wall_s);
  return w.take();
}

TrialResultMsg decode_trial_result(const std::string& body) {
  BinaryReader r(body);
  TrialResultMsg m;
  m.trial_id = r.get_i32();
  m.akey = r.get_u64();
  m.loss = r.get_f64();
  m.pruned = r.get_u8();
  m.prune_round = r.get_i32();
  m.checksum = r.get_u64();
  m.rounds = r.get_f64_vec();
  m.wall_s = r.get_f64();
  finish_decode(r, "trial_result");
  return m;
}

std::string encode_error(const ErrorMsg& m) {
  BinaryWriter w;
  w.put_string(m.message);
  return w.take();
}

ErrorMsg decode_error(const std::string& body) {
  BinaryReader r(body);
  ErrorMsg m;
  m.message = r.get_string();
  finish_decode(r, "error");
  return m;
}

void send_msg(int fd, MsgType type, const std::string& body) {
  write_frame_fd(fd, static_cast<std::uint32_t>(type), body);
}

}  // namespace puffer
