// Trial-orchestration subsystem tests: binary checkpoint codec and
// save/restore/continue bit-identity (across PUFFER_THREADS), the
// crash-safe trial journal (torn-line tolerance, exact-bit replay), the
// early-stop pruner, and the orchestrator's determinism across execution
// concurrency plus journal-based resume equivalence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/flow.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"
#include "orchestrate/orchestrator.h"

namespace puffer {
namespace {

// Restores the worker count after each test (orchestrator tests pin it).
class OrchestrateTest : public ::testing::Test {
 protected:
  ~OrchestrateTest() override { par::set_num_threads(0); }
};

SyntheticSpec small_spec(std::uint64_t seed = 91) {
  SyntheticSpec spec;
  spec.name = "orch";
  spec.seed = seed;
  spec.num_cells = 300;
  spec.num_nets = 450;
  spec.num_macros = 2;
  spec.target_utilization = 0.78;
  // Starve the vertical supply so trials produce distinct non-zero
  // losses (a uniformly-zero loss would make the determinism checks
  // vacuous).
  spec.v_capacity_factor = 0.55;
  return spec;
}

PufferConfig small_flow_config() {
  PufferConfig cfg;
  cfg.gp.max_iters = 250;
  cfg.padding.xi = 3;
  return cfg;
}

std::filesystem::path temp_dir(const char* leaf) {
  const auto dir = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Checkpoint, BinaryCodecRoundTrip) {
  BinaryWriter w;
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.f64(-0.1);
  w.byte(CellKind::kTerminal, CellKind::kTerminal);
  w.str("hello");
  w.f64s({1.5, -2.5, 3.25});

  BinaryReader r(w.buffer(), "test");
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  double f64 = 0.0;
  CellKind kind = CellKind::kMovable;
  std::string str;
  std::vector<double> f64s;
  r.u8(u8);
  r.u32(u32);
  r.u64(u64);
  r.i32(i32);
  r.f64(f64);
  r.byte(kind, CellKind::kTerminal);
  r.str(str);
  r.f64s(f64s);
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(f64, -0.1);
  EXPECT_EQ(kind, CellKind::kTerminal);
  EXPECT_EQ(str, "hello");
  EXPECT_EQ(f64s, (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_NO_THROW(r.finish());
  EXPECT_THROW(r.u8(u8), CheckpointError);

  // A byte above its enum's last value, a count the remaining bytes
  // cannot hold and bytes left over are all rejected.
  BinaryWriter bad;
  bad.u8(3);
  bad.u64(2);
  bad.f64(1.0);
  BinaryReader in(bad.buffer(), "test");
  EXPECT_THROW(in.byte(kind, CellKind::kTerminal), CheckpointError);
  EXPECT_THROW(in.f64s(f64s), CheckpointError);
  EXPECT_THROW(in.finish(), CheckpointError);
}

TEST(Checkpoint, SnapshotCodecRejectsCorruption) {
  FlowSnapshot snap;
  snap.design_key = 11;
  snap.prefix_key = 22;
  snap.x = {1.0, 2.0, 3.0};
  snap.y = {4.0, 5.0, 6.0};

  const std::string bytes = encode_snapshot(snap);
  const FlowSnapshot back = decode_snapshot(bytes);
  EXPECT_EQ(back.design_key, snap.design_key);
  EXPECT_EQ(back.prefix_key, snap.prefix_key);
  EXPECT_EQ(back.x, snap.x);
  EXPECT_EQ(back.y, snap.y);

  // A single flipped byte must fail the checksum trailer.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_THROW(decode_snapshot(corrupt), CheckpointError);
  // Truncation must fail too, and so must bytes after the frame.
  const std::string truncated = bytes.substr(0, bytes.size() - 5);
  EXPECT_THROW(decode_snapshot(truncated), CheckpointError);
  EXPECT_THROW(decode_snapshot(bytes + "x"), CheckpointError);
  // The same body in a frame of another type (another format or layout)
  // is refused, never misread; so is a body with bytes left over.
  FrameBuffer in;
  in.append(bytes.data(), bytes.size());
  WireFrame frame;
  ASSERT_TRUE(in.next(&frame));
  EXPECT_THROW(decode_snapshot(encode_frame(frame.type + 1, frame.body)),
               CheckpointError);
  EXPECT_THROW(decode_snapshot(encode_frame(frame.type, frame.body + "x")),
               CheckpointError);

  EXPECT_THROW(load_snapshot("/nonexistent/dir/prefix.ckpt"), CheckpointError);
}

// A write that fails after the temporary was written (here the rename:
// the target is a non-empty directory) removes the temporary.
TEST(Checkpoint, FailedAtomicWriteLeavesNoTemporary) {
  const auto dir = temp_dir("puffer_atomic_write_fail");
  const std::filesystem::path target = dir / "prefix.ckpt";
  std::filesystem::create_directories(target / "occupied");
  EXPECT_THROW(atomic_write_file(target.string(), "payload"),
               CheckpointError);
  EXPECT_FALSE(std::filesystem::exists(target.string() + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(target));
  std::filesystem::remove_all(dir);
}

TEST_F(OrchestrateTest, CheckpointRoundTripBitIdentical) {
  // Satellite contract: fork -> save -> restore -> continue is bitwise
  // identical to the uninterrupted staged run, for PUFFER_THREADS 1/2/8,
  // and identical across those thread counts.
  const auto dir = temp_dir("puffer_orch_ckpt");
  const std::string path = (dir / "prefix.ckpt").string();
  std::uint64_t baseline = 0;
  for (const int threads : {1, 2, 8}) {
    par::set_num_threads(threads);

    Design cont = generate_synthetic(small_spec());
    PufferFlow flow(cont, small_flow_config());
    FlowSnapshot snap;
    flow.run_prefix(0.45, &snap);
    flow.run_from(snap);  // uninterrupted continue, same process state
    const std::uint64_t cont_sum = position_checksum(cont);

    save_snapshot(path, snap);
    const FlowSnapshot loaded = load_snapshot(path);
    EXPECT_EQ(loaded.x, snap.x);
    EXPECT_EQ(loaded.y, snap.y);
    EXPECT_EQ(loaded.prefix_key, snap.prefix_key);

    // Fresh design (generator positions, no initial_place), fresh flow:
    // the restore path must reproduce the continuation exactly.
    Design restored = generate_synthetic(small_spec());
    PufferFlow flow2(restored, small_flow_config());
    flow2.run_from(loaded);
    EXPECT_EQ(position_checksum(restored), cont_sum)
        << "threads=" << threads;

    if (baseline == 0) baseline = cont_sum;
    EXPECT_EQ(cont_sum, baseline) << "threads=" << threads;
  }
  std::filesystem::remove_all(dir);
}

TEST(TrialJournal, EncodeDecodeRoundTripAllTypes) {
  JournalRecord h;
  h.type = JournalRecord::Type::kHeader;
  h.design_key = 0x1111222233334444ULL;
  h.prefix_key = 2;
  h.space_key = 3;
  h.seed = 4;
  h.trials = 12;
  h.batch_size = 3;

  JournalRecord c;
  c.type = JournalRecord::Type::kCheckpoint;
  c.path = "/tmp/prefix.ckpt";
  c.prefix_key = 2;

  JournalRecord s;
  s.type = JournalRecord::Type::kTrialStart;
  s.trial = 5;
  s.akey = 0xabcdef;

  JournalRecord t;
  t.type = JournalRecord::Type::kTrialComplete;
  t.trial = 5;
  t.akey = 0xabcdef;
  t.loss = 0.1 + 0.2;  // not exactly representable in decimal text
  t.pruned = true;
  t.prune_round = 2;
  t.checksum = 0x9999;
  t.rounds = {0.30000000000000004, 1.0 / 3.0};

  JournalRecord e;
  e.type = JournalRecord::Type::kExploreComplete;
  e.best_trial = 5;
  e.best_loss = 1.0 / 7.0;
  e.best_checksum = 0x7777;

  for (const JournalRecord& rec : {h, c, s, t, e}) {
    JournalRecord back;
    ASSERT_TRUE(TrialJournal::decode(TrialJournal::encode(rec), &back));
    EXPECT_EQ(back.type, rec.type);
  }
  JournalRecord back;
  ASSERT_TRUE(TrialJournal::decode(TrialJournal::encode(t), &back));
  EXPECT_EQ(back.trial, t.trial);
  EXPECT_EQ(back.akey, t.akey);
  EXPECT_EQ(back.loss, t.loss);  // exact bits via the hex encoding
  EXPECT_EQ(back.pruned, t.pruned);
  EXPECT_EQ(back.prune_round, t.prune_round);
  EXPECT_EQ(back.checksum, t.checksum);
  EXPECT_EQ(back.rounds, t.rounds);
  ASSERT_TRUE(TrialJournal::decode(TrialJournal::encode(h), &back));
  EXPECT_EQ(back.design_key, h.design_key);
  EXPECT_EQ(back.trials, h.trials);

  EXPECT_FALSE(TrialJournal::decode("", &back));
  EXPECT_FALSE(TrialJournal::decode("{\"type\":\"unknown\"}", &back));
  EXPECT_FALSE(TrialJournal::decode("{\"type\":\"trial_start\",\"trial\":1",
                                    &back));
}

TEST(TrialJournal, TolerantLoadDropsTornTail) {
  const auto dir = temp_dir("puffer_orch_journal");
  const std::string path = (dir / "trials.jsonl").string();
  {
    TrialJournal journal(path);
    JournalRecord s;
    s.type = JournalRecord::Type::kTrialStart;
    for (int i = 0; i < 3; ++i) {
      s.trial = i;
      s.akey = static_cast<std::uint64_t>(i) * 17;
      journal.append(s);
    }
  }
  EXPECT_EQ(TrialJournal::load(path).size(), 3u);

  // Simulate a crash mid-append: a torn final line must be dropped, the
  // records before it kept.
  {
    std::ofstream f(path, std::ios::app);
    f << "{\"type\":\"trial_complete\",\"trial\":3,\"ak";
  }
  EXPECT_EQ(TrialJournal::load(path).size(), 3u);

  // The loader stops at the first malformed line; reopening the journal
  // cuts that tail off (see ReopenAfterTornTailKeepsNewRecords).
  EXPECT_EQ(TrialJournal::load("/nonexistent/journal.jsonl").size(), 0u);
  std::filesystem::remove_all(dir);
}

// A resumed exploration appends after a crash that tore the journal's
// last line: the new records must survive, and the torn start record must
// not come back glued to them as a phantom.
TEST(TrialJournal, ReopenAfterTornTailKeepsNewRecords) {
  const auto dir = temp_dir("puffer_orch_journal_reopen");
  const std::string path = (dir / "trials.jsonl").string();
  JournalRecord start;
  start.type = JournalRecord::Type::kTrialStart;
  {
    TrialJournal journal(path);
    for (int i = 0; i < 3; ++i) {
      start.trial = i;
      start.akey = static_cast<std::uint64_t>(i) * 17;
      journal.append(start);
    }
  }
  {
    std::ofstream f(path, std::ios::app);
    f << "{\"type\":\"trial_start\",\"trial\":3,\"ak";
  }
  {
    TrialJournal journal(path);
    JournalRecord done;
    done.type = JournalRecord::Type::kTrialComplete;
    done.trial = 2;
    done.akey = 34;
    done.loss = 1.5;
    journal.append(done);
  }
  const std::vector<JournalRecord> records = TrialJournal::load(path);
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].type,
              JournalRecord::Type::kTrialStart);
    EXPECT_EQ(records[static_cast<std::size_t>(i)].trial, i);
  }
  EXPECT_EQ(records[3].type, JournalRecord::Type::kTrialComplete);
  EXPECT_EQ(records[3].trial, 2);
  EXPECT_EQ(records[3].akey, 34u);
  EXPECT_EQ(records[3].loss, 1.5);
  std::filesystem::remove_all(dir);
}

TEST(Pruner, ValidatesConfig) {
  PruneConfig bad;
  bad.quantile = 0.0;
  EXPECT_THROW(validate_prune_config(bad), std::invalid_argument);
  bad.quantile = 1.0;
  EXPECT_THROW(validate_prune_config(bad), std::invalid_argument);
  bad = PruneConfig{};
  bad.grace_rounds = -1;
  EXPECT_THROW(validate_prune_config(bad), std::invalid_argument);
  bad = PruneConfig{};
  bad.min_history = 1;
  EXPECT_THROW(validate_prune_config(bad), std::invalid_argument);
  bad = PruneConfig{};
  bad.penalty = -1.0;
  EXPECT_THROW(validate_prune_config(bad), std::invalid_argument);
}

TEST(Pruner, MedianRuleIsDeterministicAndGraceful) {
  PruneConfig cfg;
  cfg.enabled = true;
  cfg.grace_rounds = 1;
  cfg.min_history = 4;
  cfg.quantile = 0.5;
  PruneThresholds pruner(cfg);

  // No history yet: never prunes.
  EXPECT_FALSE(pruner.should_prune(1, 1e9));

  pruner.observe({10.0, 8.0});
  pruner.observe({12.0, 9.0});
  pruner.observe({11.0, 7.0});
  EXPECT_EQ(pruner.trails_observed(), 3);
  // Below min_history at every rung: still never prunes.
  EXPECT_FALSE(pruner.should_prune(1, 1e9));

  pruner.observe({13.0, 6.0});
  // Rung 1 history {8, 9, 7, 6}: median index floor(0.5 * 3) = 1 of the
  // sorted {6, 7, 8, 9} -> threshold 7.
  EXPECT_TRUE(pruner.should_prune(1, 7.5));
  EXPECT_FALSE(pruner.should_prune(1, 7.0));  // equality never prunes
  EXPECT_FALSE(pruner.should_prune(0, 1e9));  // grace round
  EXPECT_FALSE(pruner.should_prune(5, 1e9));  // rung without history

  EXPECT_EQ(pruner.penalty_loss(7.5), cfg.penalty + 7.5);

  // Disabled pruner never prunes regardless of history.
  PruneConfig off = cfg;
  off.enabled = false;
  PruneThresholds disabled(off);
  disabled.observe({1.0});
  disabled.observe({1.0});
  disabled.observe({1.0});
  disabled.observe({1.0});
  EXPECT_FALSE(disabled.should_prune(0, 1e9));
}

TEST(Orchestrator, ValidatesConfig) {
  OrchestratorConfig bad;
  bad.trials = 0;
  EXPECT_THROW(validate_orchestrator_config(bad), std::invalid_argument);
  bad = OrchestratorConfig{};
  bad.concurrency = 0;
  EXPECT_THROW(validate_orchestrator_config(bad), std::invalid_argument);
  bad = OrchestratorConfig{};
  bad.batch_size = 0;
  EXPECT_THROW(validate_orchestrator_config(bad), std::invalid_argument);
  bad = OrchestratorConfig{};
  bad.early_stop = 0;
  EXPECT_THROW(validate_orchestrator_config(bad), std::invalid_argument);
  bad = OrchestratorConfig{};
  bad.fork_overflow = 0.0;
  EXPECT_THROW(validate_orchestrator_config(bad), std::invalid_argument);
  bad = OrchestratorConfig{};
  bad.resume = true;  // resume without a journal cannot work
  EXPECT_THROW(validate_orchestrator_config(bad), std::invalid_argument);
  bad = OrchestratorConfig{};
  bad.prune.quantile = 2.0;
  EXPECT_THROW(validate_orchestrator_config(bad), std::invalid_argument);
  bad = OrchestratorConfig{};
  bad.tpe.n_startup = -1;
  EXPECT_THROW(validate_orchestrator_config(bad), std::invalid_argument);
}

OrchestratorConfig small_orch_config() {
  OrchestratorConfig cfg;
  cfg.trials = 5;
  cfg.batch_size = 2;
  cfg.concurrency = 1;
  cfg.fork_overflow = 0.45;
  cfg.seed = 4242;
  cfg.tpe.n_startup = 3;
  cfg.prune.enabled = true;
  cfg.prune.grace_rounds = 1;
  cfg.prune.min_history = 3;
  return cfg;
}

ExperimentConfig small_experiment_config() {
  ExperimentConfig cfg;
  cfg.puffer = small_flow_config();
  return cfg;
}

TEST_F(OrchestrateTest, DeterministicAcrossConcurrencyAndThreads) {
  // The tentpole contract: identical best strategy, loss bits,
  // observation sequence and final-position checksum for any execution
  // concurrency K and any PUFFER_THREADS.
  OrchestrationResult base;
  {
    par::set_num_threads(1);
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), small_experiment_config(),
                           small_orch_config());
    base = orch.run();
  }
  EXPECT_EQ(base.trials_evaluated, 5);
  EXPECT_EQ(base.stats.trials_run + base.stats.trials_pruned, 5);
  EXPECT_GE(base.best_loss, 0.0);  // tiny designs can route overflow-free
  EXPECT_GE(base.best_trial, 0);
  EXPECT_EQ(base.observations.size(), 5u);

  {
    par::set_num_threads(2);
    OrchestratorConfig cfg = small_orch_config();
    cfg.concurrency = 3;
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), small_experiment_config(),
                           cfg);
    const OrchestrationResult got = orch.run();
    EXPECT_EQ(got.best_loss, base.best_loss);
    EXPECT_EQ(got.best, base.best);
    EXPECT_EQ(got.best_trial, base.best_trial);
    EXPECT_EQ(got.best_checksum, base.best_checksum);
    ASSERT_EQ(got.observations.size(), base.observations.size());
    for (std::size_t i = 0; i < got.observations.size(); ++i) {
      EXPECT_EQ(got.observations[i].loss, base.observations[i].loss) << i;
      EXPECT_EQ(got.observations[i].x, base.observations[i].x) << i;
    }
    EXPECT_EQ(got.stats.trials_pruned, base.stats.trials_pruned);
    EXPECT_GE(got.stats.scheduler_utilization, 0.0);
    EXPECT_LE(got.stats.scheduler_utilization, 1.0);
  }
}

TEST_F(OrchestrateTest, ResumeReplaysJournalWithoutReevaluation) {
  par::set_num_threads(2);
  const auto dir = temp_dir("puffer_orch_resume");
  OrchestratorConfig cfg = small_orch_config();
  cfg.concurrency = 2;
  cfg.checkpoint_dir = (dir / "ckpt").string();
  cfg.journal_path = (dir / "trials.jsonl").string();

  OrchestrationResult first;
  {
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), small_experiment_config(),
                           cfg);
    first = orch.run();
  }
  EXPECT_GT(first.stats.checkpoint_save_s, 0.0);
  EXPECT_EQ(first.stats.trials_resumed, 0);

  // Full resume: every trial replays from the journal, the checkpoint
  // restores instead of re-running the prefix, and the outcome is
  // bit-identical.
  {
    OrchestratorConfig rcfg = cfg;
    rcfg.resume = true;
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), small_experiment_config(),
                           rcfg);
    const OrchestrationResult again = orch.run();
    EXPECT_EQ(again.stats.trials_resumed, first.trials_evaluated);
    EXPECT_EQ(again.stats.trials_run + again.stats.trials_pruned,
              first.trials_evaluated);
    EXPECT_GT(again.stats.checkpoint_restore_s, 0.0);
    EXPECT_EQ(again.best_loss, first.best_loss);
    EXPECT_EQ(again.best, first.best);
    EXPECT_EQ(again.best_checksum, first.best_checksum);
  }

  // Cuts the journal back to its first two completed trials.
  const auto keep_two_completed_trials = [&] {
    const std::vector<JournalRecord> records =
        TrialJournal::load(cfg.journal_path);
    std::string kept;
    int completes = 0;
    for (const JournalRecord& rec : records) {
      if (rec.type == JournalRecord::Type::kTrialComplete && completes >= 2) {
        continue;
      }
      if (rec.type == JournalRecord::Type::kExploreComplete) continue;
      if (rec.type == JournalRecord::Type::kTrialComplete) ++completes;
      kept += TrialJournal::encode(rec) + "\n";
    }
    std::ofstream f(cfg.journal_path, std::ios::trunc);
    f << kept;
  };

  // Partial resume (the kill-and-resume scenario): truncate the journal
  // to the first two completed trials; the resumed run re-executes only
  // the rest and converges to the identical result.
  {
    keep_two_completed_trials();
    OrchestratorConfig rcfg = cfg;
    rcfg.resume = true;
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), small_experiment_config(),
                           rcfg);
    const OrchestrationResult resumed = orch.run();
    EXPECT_EQ(resumed.stats.trials_resumed, 2);
    EXPECT_EQ(resumed.best_loss, first.best_loss);
    EXPECT_EQ(resumed.best, first.best);
    EXPECT_EQ(resumed.best_checksum, first.best_checksum);
  }

  // A checkpoint in the older PUFS layout (magic, version 2, a body that
  // also holds the fork point, padding and two RNG words, FNV trailer)
  // with this run's keys and positions is rebuilt, never misread: the
  // prefix runs again, the resumed trials fork from it, and the outcome
  // is bit-identical.
  {
    const std::string ckpt = cfg.checkpoint_dir + "/prefix.ckpt";
    const FlowSnapshot snap = load_snapshot(ckpt);
    BinaryWriter body;
    body.u64(snap.design_key);
    body.u64(snap.prefix_key);
    body.f64(cfg.fork_overflow);
    body.f64s(snap.x);
    body.f64s(snap.y);
    body.f64s({});  // padding
    body.u64(0);    // RNG key
    body.u64(0);    // RNG counter
    BinaryWriter head;
    head.u32(0x50554653);  // "PUFS"
    head.u32(2);
    head.u64(body.buffer().size());
    BinaryWriter trailer;
    trailer.u64(fnv1a_bytes(body.buffer().data(), body.buffer().size()));
    atomic_write_file(ckpt, head.buffer() + body.buffer() + trailer.buffer());
    keep_two_completed_trials();

    OrchestratorConfig rcfg = cfg;
    rcfg.resume = true;
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), small_experiment_config(),
                           rcfg);
    const OrchestrationResult rebuilt = orch.run();
    EXPECT_EQ(rebuilt.stats.checkpoint_restore_s, 0.0);
    EXPECT_GT(rebuilt.stats.checkpoint_save_s, 0.0);
    EXPECT_EQ(rebuilt.stats.trials_resumed, 2);
    EXPECT_EQ(rebuilt.best_loss, first.best_loss);
    EXPECT_EQ(rebuilt.best, first.best);
    EXPECT_EQ(rebuilt.best_checksum, first.best_checksum);
    // The rebuilt checkpoint is in the current layout again.
    const FlowSnapshot again = load_snapshot(ckpt);
    EXPECT_EQ(again.prefix_key, snap.prefix_key);
    EXPECT_EQ(again.x, snap.x);
    EXPECT_EQ(again.y, snap.y);
  }

  // A different seed re-keys the space: resuming against the existing
  // journal must refuse instead of mixing histories.
  {
    OrchestratorConfig rcfg = cfg;
    rcfg.resume = true;
    rcfg.seed = 999;
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), small_experiment_config(),
                           rcfg);
    EXPECT_THROW(orch.run(), CheckpointError);
  }
  std::filesystem::remove_all(dir);
}

// The prefix key of an engine older than kGpRevision: the same config
// values without the revision word, plus the since-deleted or constant
// settings InitialPlaceConfig::{keep_existing (0), sweeps (12),
// jitter_frac (0.003), seed (7)} and GpConfig::{stop_overflow (0.07),
// use_fillers (1), seed (11), mu_max (1.10), mu_min (0.80),
// hpwl_ref_frac (0.008)}.
std::uint64_t pre_revision_prefix_key(const PufferConfig& c,
                                      double fork_overflow) {
  BinaryWriter w;
  w.u8(0);
  w.i32(12);
  w.f64(0.003);
  w.u64(7);
  w.i32(c.gp.bin_dim);
  w.f64(c.gp.target_density);
  w.f64(0.07);
  w.i32(c.gp.max_iters);
  w.u8(1);
  w.u64(11);
  w.f64(1.10);
  w.f64(0.80);
  w.f64(0.008);
  w.f64(c.gp.lambda_freeze_overflow);
  w.f64(fork_overflow);
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

// A prefix checkpoint and a trial journal written by an engine that
// placed differently carry its prefix key: the journal is refused, the
// checkpoint is rebuilt, and the resumed exploration equals a fresh one.
TEST_F(OrchestrateTest, StaleEngineCheckpointAndJournalAreNotReplayed) {
  par::set_num_threads(2);
  const auto dir = temp_dir("puffer_orch_stale_engine");
  OrchestratorConfig cfg = small_orch_config();
  cfg.checkpoint_dir = (dir / "ckpt").string();
  cfg.journal_path = (dir / "trials.jsonl").string();
  const std::string ckpt = cfg.checkpoint_dir + "/prefix.ckpt";
  const ExperimentConfig exp = small_experiment_config();

  OrchestrationResult fresh;
  std::uint64_t key = 0;
  {
    Design d = generate_synthetic(small_spec());
    key = PufferFlow(d, exp.puffer).prefix_key(cfg.fork_overflow);
    TrialOrchestrator orch(d, puffer_param_specs(), exp, cfg);
    fresh = orch.run();
  }
  const std::uint64_t old_key =
      pre_revision_prefix_key(exp.puffer, cfg.fork_overflow);
  ASSERT_NE(old_key, key);
  const std::vector<JournalRecord> records =
      TrialJournal::load(cfg.journal_path);
  const FlowSnapshot snap = load_snapshot(ckpt);

  // Rewrites the journal with its first two completed trials, keyed
  // `header_key` and with losses the current engine never produced when
  // `stale`.
  const auto write_journal = [&](std::uint64_t header_key, bool stale) {
    std::string kept;
    int completes = 0;
    for (JournalRecord rec : records) {
      if (rec.type == JournalRecord::Type::kExploreComplete) continue;
      if (rec.type == JournalRecord::Type::kTrialComplete) {
        if (completes++ >= 2) continue;
        if (stale) rec.loss += 1.0;
      }
      if (rec.type == JournalRecord::Type::kHeader ||
          rec.type == JournalRecord::Type::kCheckpoint) {
        rec.prefix_key = header_key;
      }
      kept += TrialJournal::encode(rec) + "\n";
    }
    std::ofstream f(cfg.journal_path, std::ios::trunc);
    f << kept;
  };
  // A checkpoint of the older engine: its key and other positions.
  const auto write_stale_checkpoint = [&] {
    FlowSnapshot stale = snap;
    stale.prefix_key = old_key;
    for (double& x : stale.x) x += 1.0;
    save_snapshot(ckpt, stale);
  };
  OrchestratorConfig rcfg = cfg;
  rcfg.resume = true;

  // The older engine's journal is refused rather than mixed with new
  // trials.
  write_journal(old_key, true);
  write_stale_checkpoint();
  {
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), exp, rcfg);
    EXPECT_THROW(orch.run(), CheckpointError);
  }

  // With this engine's journal, the older checkpoint is rebuilt and the
  // trials that still have to run fork from the new prefix.
  write_journal(key, false);
  write_stale_checkpoint();
  {
    Design d = generate_synthetic(small_spec());
    TrialOrchestrator orch(d, puffer_param_specs(), exp, rcfg);
    const OrchestrationResult resumed = orch.run();
    EXPECT_EQ(resumed.stats.checkpoint_restore_s, 0.0);
    EXPECT_GT(resumed.stats.checkpoint_save_s, 0.0);
    EXPECT_EQ(resumed.stats.trials_resumed, 2);
    EXPECT_EQ(resumed.best_loss, fresh.best_loss);
    EXPECT_EQ(resumed.best, fresh.best);
    EXPECT_EQ(resumed.best_checksum, fresh.best_checksum);
    ASSERT_EQ(resumed.observations.size(), fresh.observations.size());
    for (std::size_t i = 0; i < fresh.observations.size(); ++i) {
      EXPECT_EQ(resumed.observations[i].loss, fresh.observations[i].loss)
          << i;
    }
    const FlowSnapshot rebuilt = load_snapshot(ckpt);
    EXPECT_EQ(rebuilt.prefix_key, key);
    EXPECT_EQ(rebuilt.x, snap.x);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace puffer
