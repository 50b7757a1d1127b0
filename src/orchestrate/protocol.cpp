#include "orchestrate/protocol.h"

namespace puffer {

// --- field walks: the one layout of each message body ---------------------

template <class IO, FieldsOf<HelloMsg> M>
void fields(IO& io, M& m) {
  io.u32(m.protocol_version);
  io.u64(m.design_key);
  io.str(m.worker_name);
}

template <class IO, FieldsOf<HelloAckMsg> M>
void fields(IO& io, M& m) {
  io.u32(m.protocol_version);
  io.u64(m.design_key);
  io.u64(m.prefix_key);
  io.str(m.base_config_text);
}

template <class IO, FieldsOf<TrialAssignMsg> M>
void fields(IO& io, M& m) {
  io.i32(m.trial_id);
  io.u64(m.akey);
  io.f64s(m.assignment);
  io.str(m.pruner_blob);
}

template <class IO, FieldsOf<TrialResultMsg> M>
void fields(IO& io, M& m) {
  io.i32(m.trial_id);
  io.u64(m.akey);
  io.f64(m.loss);
  io.u8(m.pruned);
  io.i32(m.prune_round);
  io.u64(m.checksum);
  io.f64s(m.rounds);
  io.f64(m.wall_s);
}

template <class IO, FieldsOf<ErrorMsg> M>
void fields(IO& io, M& m) {
  io.str(m.message);
}

PUFFER_FIELD_CODEC(HelloMsg, hello)
PUFFER_FIELD_CODEC(HelloAckMsg, hello_ack)
PUFFER_FIELD_CODEC(TrialAssignMsg, trial_assign)
PUFFER_FIELD_CODEC(TrialResultMsg, trial_result)
PUFFER_FIELD_CODEC(ErrorMsg, error)

void send_msg(int fd, MsgType type, const std::string& body) {
  write_frame_fd(fd, static_cast<std::uint32_t>(type), body);
}

}  // namespace puffer
