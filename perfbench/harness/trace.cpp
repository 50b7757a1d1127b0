#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "common/parallel.h"
#include "core/flow.h"

namespace perfbench {
namespace {

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next++;
  return index;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t Tracer::open() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::close(std::uint64_t id, const std::string& name,
                   Clock::time_point start, Clock::time_point end,
                   std::uint64_t parent, std::int64_t job) {
  if (!enabled_) return;
  SpanRec rec;
  rec.name = name;
  rec.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  rec.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  rec.id = id;
  rec.parent = parent;
  rec.job = job;
  rec.tid = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

std::uint64_t Tracer::record(const std::string& name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::int64_t job) {
  const std::uint64_t id = open();
  close(id, name, start, end, parent, job);
  return id;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    if (i) out += ",\n";
    out += "{\"name\":" + json_string(s.name) + ",\"cat\":" +
           json_string(layer) + ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.tid) +
           ",\"ts\":" + json_number(static_cast<double>(s.start_ns) / 1e3) +
           ",\"dur\":" +
           json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"job\":" + std::to_string(s.job) + "}}";
  }
  out += "]}\n";
  write_file(path, out);
}

Span::Span(Tracer& tracer, std::string name, std::uint64_t parent,
           std::int64_t job)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent),
      job_(job),
      id_(tracer.open()),
      start_(Clock::now()) {}

Span::~Span() {
  tracer_.close(id_, name_, start_, Clock::now(), parent_, job_);
}

void RawResult::fail(const std::string& what) {
  ++failed;
  failures.push_back(what);
}

void RawResult::add_flow(const puffer::FlowMetrics& m) {
  sample("core.initial_place_s", m.stages.get("initial_place"));
  sample("core.global_place_s", m.stages.get("global_place"));
  sample("core.routability_opt_s", m.stages.get("routability_opt"));
  sample("core.legalize_s", m.stages.get("legalize"));
  sample("core.padding_rounds", m.padding_rounds);

  const puffer::GpKernelTimes& k = m.gp_kernels;
  sample("gp.wirelength_s", k.wirelength_s);
  sample("gp.density_s", k.density_s);
  sample("gp.poisson_s", k.poisson_s);
  sample("gp.assemble_s", k.assemble_s);
  sample("gp.nesterov_s", k.nesterov_s);
  sample("gp.iterations", k.iterations);
  sample("gp.gradient_evals", k.gradient_evals);
  sample("gp.evals_per_iter",
         k.iterations > 0 ? static_cast<double>(k.gradient_evals) /
                                k.iterations
                          : 0.0);

  const puffer::IncrementalStats& e = m.estimation;
  sample("congestion.calls", e.calls);
  sample("congestion.full_rebuilds", e.full_rebuilds);
  sample("congestion.incremental_s", e.incremental_time_s);
  sample("congestion.full_s", e.full_time_s);
  sample("congestion.dirty_net_frac", e.dirty_net_frac());
  sample("congestion.rsmt_cache_hit_rate", m.rsmt_cache_hit_rate);

  const puffer::PaddingStageMetrics& p = m.padding_stage;
  const double nets = static_cast<double>(p.nets_reused + p.nets_recomputed);
  sample("padding.feature_s", p.feature_time_s);
  sample("padding.extracts", p.extracts);
  sample("padding.dirty_gcell_frac", p.dirty_gcell_frac());
  sample("padding.incidence_hit_rate", p.incidence_hit_rate());
  sample("padding.nets_reused_frac",
         nets > 0 ? static_cast<double>(p.nets_reused) / nets : 0.0);

  sample("legal.failed_cells", m.legalize.failed_cells);
  sample("legal.avg_displacement", m.legalize.avg_displacement());
}

void RawResult::add_route(const puffer::RouteResult& r) {
  sample("router.route_s", r.route_time_s);
  sample("router.rrr_s", r.rrr_time_s);
  sample("router.reroute_attempts", r.reroute_attempts);
  sample("router.rerouted", r.rerouted);
  sample("router.reroute_yield",
         r.reroute_attempts > 0
             ? static_cast<double>(r.rerouted) / r.reroute_attempts
             : 0.0);
  sample("router.rounds", r.rounds_used);
  sample("router.hof_pct", r.overflow.hof_pct);
  sample("router.vof_pct", r.overflow.vof_pct);
}

void RawResult::write_json(const std::string& path) const {
  std::string out = "{\"workload\":" + json_string(workload) +
                    ",\n\"attempted\":" + std::to_string(attempted) +
                    ",\n\"failed\":" + std::to_string(failed) +
                    ",\n\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i) out += ",";
    out += json_string(failures[i]);
  }
  out += "],\n\"setup_s\":" + json_array(setup_s) +
         ",\n\"latency_s\":" + json_array(latency_s) +
         ",\n\"first_feedback_s\":" + json_array(first_feedback_s) +
         ",\n\"placements\":" + std::to_string(placements) +
         ",\n\"busy_s\":" + json_number(busy_s) +
         ",\n\"routed_wl\":" + json_array(routed_wl) +
         ",\n\"peak_rss_mb\":" + json_number(peak_rss_mb) +
         ",\n\"layers\":{";
  bool first = true;
  for (const auto& [name, values] : layers) {
    if (!first) out += ",\n";
    first = false;
    out += json_string(name) + ":" + json_array(values);
  }
  out += "},\n\"info\":{";
  first = true;
  for (const auto& [key, value] : info) {
    if (!first) out += ",";
    first = false;
    out += json_string(key) + ":" + json_string(value);
  }
  out += "}}\n";
  write_file(path, out);
}

double peak_rss_mb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      f >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(f, rest);
  }
  return 0.0;
}

int concurrent_sessions() {
  const int threads = puffer::par::num_threads();
  return threads / 2 > 1 ? threads / 2 : 1;
}

}  // namespace perfbench
