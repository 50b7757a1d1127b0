// place_congested: the product's headline path, as puffer_place runs it.
// Each job reads the Bookshelf design, places it with the PUFFER flow,
// evaluates it with the neutral router and writes the .pl.
#include <unistd.h>

#include "bench.h"
#include "core/flow.h"
#include "io/bookshelf.h"
#include "legal/legality.h"

namespace perfbench {

namespace {

// Moves one movable cell onto another, so the placement is no longer
// legal.
void break_placement(puffer::Design& design) {
  puffer::Cell* first = nullptr;
  for (puffer::Cell& c : design.cells) {
    if (!c.movable()) continue;
    if (first == nullptr) {
      first = &c;
      continue;
    }
    first->x = c.x;
    first->y = c.y;
    return;
  }
}

// Extra set-up (Bookshelf parse) samples taken before each job, so the
// set-up median spans the whole run like the job times do.
constexpr int kParsesPerJob = 2;

}  // namespace

void run_place(const RunOptions& opt, Tracer& tracer, RawResult& raw) {
  const std::string aux = opt.inputs + "/" + design_base(0) + ".aux";
  const std::string pl = opt.work + "/" + design_base(0) + ".pl";

  const auto loop_start = Clock::now();
  double last_job_s = 0.0;
  // Start another job only while it should end within --seconds.
  for (int job = 0;
       job == 0 || seconds_since(loop_start) + last_job_s <= opt.seconds;
       ++job) {
    for (int i = 0; i < kParsesPerJob; ++i) {
      Span span(tracer, "io.read_bookshelf");
      const auto t0 = Clock::now();
      const puffer::Design design = puffer::read_bookshelf(aux);
      raw.setup_s.push_back(seconds_since(t0));
    }
    ++raw.attempted;
    const std::uint64_t job_span = tracer.open();
    const auto t0 = Clock::now();
    puffer::Design design;
    {
      Span span(tracer, "io.read_bookshelf", job_span, job);
      design = puffer::read_bookshelf(aux);
    }
    const auto t1 = Clock::now();

    puffer::PufferFlow flow(design, puffer::PufferConfig{});
    std::vector<Clock::time_point> rounds;
    flow.set_progress_hook([&rounds](const puffer::FlowProgress&) {
      rounds.push_back(Clock::now());
      return true;
    });
    const std::uint64_t flow_span = tracer.open();
    const puffer::FlowMetrics metrics = flow.run();
    const auto t_flow = Clock::now();
    tracer.close(flow_span, "core.flow", t1, t_flow, job_span, job);

    puffer::RouteResult route;
    {
      Span span(tracer, "router.evaluate_routability", job_span, job);
      route = puffer::evaluate_routability(design, puffer::RouterConfig{},
                                           flow.estimator());
    }
    const auto t_route = Clock::now();
    puffer::write_pl(design, pl);
    const auto t2 = Clock::now();
    tracer.record("io.write_pl", t_route, t2, job_span, job);
    tracer.close(job_span, "place.job", t0, t2, 0, job);

    const double place_s = seconds_between(t1, t2);
    last_job_s = seconds_between(t0, t2);
    raw.setup_s.push_back(seconds_between(t0, t1));
    raw.latency_s.push_back(place_s);
    raw.first_feedback_s.push_back(
        rounds.empty() ? place_s : seconds_between(t1, rounds.front()));
    raw.sample("io.read_bookshelf_s", seconds_between(t0, t1));
    raw.sample("io.write_pl_s", seconds_between(t_route, t2));
    for (std::size_t r = 0; r + 1 < rounds.size(); ++r) {
      tracer.record("core.round", rounds[r], rounds[r + 1], flow_span, job);
      raw.sample("core.round_s", seconds_between(rounds[r], rounds[r + 1]));
    }
    raw.add_flow(metrics);
    raw.add_route(route);

    if (opt.inject_fault && job == 0) break_placement(design);
    const std::string tag = "place job " + std::to_string(job) + ": ";
    const puffer::LegalityReport legality = puffer::check_legality(design);
    if (!legality.legal) {
      raw.fail(tag + "illegal placement (" + legality.summary() + ")");
    } else if (metrics.legalize.failed_cells > 0) {
      raw.fail(tag + std::to_string(metrics.legalize.failed_cells) +
               " cells failed legalization");
    } else if (!(route.wirelength > 0.0)) {
      raw.fail(tag + "evaluation router returned no wirelength");
    } else {
      ++raw.placements;
      raw.busy_s += place_s;
      raw.routed_wl.push_back(route.wirelength);
    }
  }
  raw.peak_rss_mb = peak_rss_mb(static_cast<int>(::getpid()));
}

}  // namespace perfbench
