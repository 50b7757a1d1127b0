// perfbench harness: measures the placer end to end from outside, by
// calling its public entry points (read_bookshelf, PufferFlow,
// evaluate_routability, write_pl, TrialOrchestrator, ServeClient).
//
// The harness writes raw samples only; run.py turns them into the
// reported metrics (medians, percentiles, coverage, self time).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace puffer {
struct FlowMetrics;
struct RouteResult;
}  // namespace puffer

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct RunOptions {
  std::string workload;
  std::string inputs;     // directory written by `perfbench gen`
  std::string work;       // scratch directory for the run's outputs
  std::string out;        // raw result JSON
  std::string trace_out;  // Chrome trace JSON; empty = tracing off
  std::string pufferd;    // daemon binary (serve workload)
  double seconds = 10.0;
  // Corrupts the first output before it is checked, so the benchmark's
  // own tests can prove a wrong result fails the run.
  bool inject_fault = false;
};

// In-memory span recorder, written once when the run ends. Disabled, it
// records nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }

  // Records a finished span; returns its id (0 when disabled). `parent`
  // 0 means a root span; `job` groups the spans of one unit of work.
  std::uint64_t record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent,
                       std::int64_t job);
  // Reserves an id for a span whose end is not known yet (so children
  // can name it as parent); close() records it.
  std::uint64_t open();
  void close(std::uint64_t id, const std::string& name,
             Clock::time_point start, Clock::time_point end,
             std::uint64_t parent, std::int64_t job);

  // Chrome trace-event JSON (complete "X" events), viewable in Perfetto.
  void write_chrome_json(const std::string& path) const;

 private:
  struct SpanRec {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t job = -1;
    int tid = 0;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRec> spans_;
};

// Scoped span: records [construction, destruction) under `parent`.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t parent = 0,
       std::int64_t job = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t parent_;
  std::int64_t job_;
  std::uint64_t id_;
  Clock::time_point start_;
};

// Raw measurements of one run.
struct RawResult {
  std::string workload;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::vector<double> setup_s;           // one per set-up repetition
  std::vector<double> latency_s;         // one per completed job
  std::vector<double> first_feedback_s;  // one per completed job
  int placements = 0;    // legal placements produced by the timed jobs
  double busy_s = 0.0;   // wall time over which they were produced
  std::vector<double> routed_wl;  // evaluation-router WL, one per result
  double peak_rss_mb = 0.0;
  // Per-layer samples (one value per job, span or round), keyed by the
  // metric names of BENCHMARK.json.
  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, std::string> info;

  void fail(const std::string& what);
  void sample(const std::string& layer, double value) {
    layers[layer].push_back(value);
  }
  // Samples every counter and timer a finished flow / evaluation
  // returns, under the core./gp./congestion./padding./legal./router.
  // names.
  void add_flow(const puffer::FlowMetrics& m);
  void add_route(const puffer::RouteResult& r);
  void write_json(const std::string& path) const;
};

// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
double peak_rss_mb(int pid);

// Input generation (`perfbench gen`).
void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& out_dir);
// The serve job blobs written by generate_inputs, in submission order.
std::vector<std::string> read_job_blobs(const std::string& inputs);

// Workloads (`perfbench run`).
void run_place(const RunOptions& opt, Tracer& tracer, RawResult& raw);
void run_serve(const RunOptions& opt, Tracer& tracer, RawResult& raw);
void run_explore(const RunOptions& opt, Tracer& tracer, RawResult& raw);

// Sessions the daemon and the orchestrator run at once: half the
// worker threads (PUFFER_THREADS), so each leases two.
int concurrent_sessions();

// Bookshelf base name of the i-th place/explore input design.
inline std::string design_base(int i) { return "design" + std::to_string(i); }
// Distinct designs explore_trials cycles through, one per exploration:
// exploration time varies by design far more than from run to run, so a
// run must average over several.
constexpr int kExploreDesigns = 8;

}  // namespace perfbench
