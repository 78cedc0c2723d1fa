// The in-process workloads, knowledge-sweep and graph-agents: one serial
// Engine answers a closed loop of sweep requests.
//
// A request is one Engine::run_collect(spec, RunStats{}) over a seed range
// of one spec. Requests alternate between cold ones, which sweep a range no
// request has swept before, and warm ones, which replay a range of the hot
// set primed during setup. The engine has no result cache, so warm replays
// cost what cold requests cost; each is checked equal to the first answer.
// Every request is checked against its spec's invariant, and every eighth
// cold request is recomputed on a fresh reference Engine after the timed
// window.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "host_speed.hpp"
#include "workloads.hpp"

namespace rsbbench {

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::uint64_t kReferenceEvery = 8;
constexpr double kTraceSliceS = 0.5;
constexpr double kRateWindowS = 2.0;

struct Case {
  SpecCase def;
  rsb::Experiment spec;   // seeds rewritten per request
  std::string span_name;  // "engine.run_collect.<case>"
};

struct Request {
  std::size_t case_index = 0;
  rsb::SeedRange range;
};

struct Answer {
  Request request;
  rsb::RunStats stats;
};

/// Everything setup builds; the measured loop uses the last of the repeats.
struct Prepared {
  std::vector<Case> cases;
  rsb::Engine engine;
  std::vector<Answer> hot;
};

/// The hot set: two requests per case on a region of seed space of its own.
std::vector<Request> hot_requests(const std::vector<SpecCase>& defs,
                                  std::uint64_t base) {
  std::vector<Request> out;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < defs.size(); ++c) {
      const std::uint64_t n = defs[c].runs_per_request;
      out.push_back({c, rsb::SeedRange::of(base + (c << 24) + round * n, n)});
    }
  }
  return out;
}

rsb::RunStats sweep(rsb::Engine& engine, Case& c, rsb::SeedRange range) {
  c.spec.seeds = range;
  return engine.run_collect(c.spec, rsb::RunStats{});
}

/// Parses the spec texts, builds a serial Engine and primes the hot set.
void set_up(Prepared& prepared, const std::vector<SpecCase>& defs,
            std::uint64_t base) {
  prepared.cases.clear();
  for (const SpecCase& def : defs) {
    prepared.cases.push_back(
        {def, to_experiment(with_seeds(def.text, rsb::SeedRange::of(base, 1))),
         "engine.run_collect." + def.name});
  }
  prepared.engine = rsb::Engine();
  prepared.engine.set_parallel({1, 0});
  prepared.hot.clear();
  for (const Request& request : hot_requests(defs, base)) {
    prepared.hot.push_back(
        {request, sweep(prepared.engine, prepared.cases[request.case_index],
                        request.range)});
  }
}

}  // namespace

Result run_in_process(const Options& options,
                      const std::vector<SpecCase>& defs, Backend backend) {
  Result result;
  Tracer tracer;
  const std::uint64_t base = seed_base(options.seed);
  const std::uint64_t cold_base = base + (1ULL << 31);

  Prepared prepared;
  std::vector<double> setup_s, raw_setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double kernel_ms = HostSpeed::measure_ms(5);
    const std::int64_t t0 = now_ns();
    set_up(prepared, defs, base);
    raw_setup_s.push_back((now_ns() - t0) / 1e9);
    setup_s.push_back(raw_setup_s.back() * HostSpeed::kReferenceMs / kernel_ms);
  }
  std::vector<Case>& cases = prepared.cases;
  rsb::Engine& engine = prepared.engine;

  // --- the measured closed loop -----------------------------------------
  std::vector<Timed> cold_ms, warm_ms;
  std::vector<Answer> to_reference;
  std::vector<std::uint64_t> cold_cursor(cases.size(), 0);
  rsb::RunStats total;
  std::uint64_t cold_count = 0, warm_count = 0;
  double slice_runs[2] = {0, 0}, slice_ns[2] = {0, 0};

  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  const std::int64_t end =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  RateWindows runs_windows(start, kRateWindowS), rows_windows(start, kRateWindowS);
  HostSpeed host(start);
  std::int64_t now = start;
  for (std::uint64_t op = 0; now < end; ++op) {
    host.maybe_sample(now);
    const bool warm = op % 2 == 1;
    Request request;
    if (warm) {
      request = prepared.hot[warm_count % prepared.hot.size()].request;
    } else {
      const std::size_t c = cold_count % cases.size();
      const std::uint64_t n = cases[c].def.runs_per_request;
      request = {c, rsb::SeedRange::of(cold_base + (c << 28) + cold_cursor[c], n)};
      cold_cursor[c] += n;
    }
    Case& c = cases[request.case_index];
    const bool traced = options.trace &&
                        static_cast<std::int64_t>((now - start) / (kTraceSliceS * 1e9)) % 2 == 1;
    tracer.set_enabled(traced);

    const std::int64_t t0 = now_ns();
    rsb::RunStats stats;
    {
      Span root(tracer, "request", -1, op);
      Span call(tracer, c.span_name.c_str(), root.index(), op);
      stats = sweep(engine, c, request.range);
    }
    now = now_ns();
    const double ms = (now - t0) / 1e6;
    slice_runs[traced] += static_cast<double>(request.range.count);
    slice_ns[traced] += static_cast<double>(now - t0);
    runs_windows.add(now, static_cast<double>(request.range.count));
    rows_windows.add(now, 1);

    ++result.attempted;
    std::string problem = check_invariant(c.def, stats);
    if (warm) {
      const Answer& first = prepared.hot[warm_count % prepared.hot.size()];
      if (!(stats == first.stats)) {
        problem = c.def.name + ": warm replay differs from its first answer";
      }
      warm_ms.push_back({now, ms});
      ++warm_count;
    } else {
      if (cold_count % kReferenceEvery == 0) to_reference.push_back({request, stats});
      cold_ms.push_back({now, ms});
      ++cold_count;
    }
    if (!problem.empty()) result.fail(problem);
    total.merge(stats);
  }
  tracer.set_enabled(false);
  const double cpu_s = process_cpu_s() - cpu_start;

  // --- output check against a fresh serial reference Engine --------------
  rsb::Engine reference;
  for (const Answer& hot : prepared.hot) to_reference.push_back(hot);
  for (const Answer& answer : to_reference) {
    Case& c = cases[answer.request.case_index];
    if (!(sweep(reference, c, answer.request.range) == answer.stats)) {
      result.fail(c.def.name + ": seeds " +
                  std::to_string(answer.request.range.first) + "+" +
                  std::to_string(answer.request.range.count) +
                  " differ from the reference engine");
    }
  }

  std::printf("# %s: %llu cold and %llu warm requests, %llu checked against "
              "the reference engine\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(cold_count),
              static_cast<unsigned long long>(warm_count),
              static_cast<unsigned long long>(to_reference.size()));
  std::printf("# raw (not host-scaled): setup_s %.6f runs_per_s %.1f "
              "cold_p50_ms %.4f warm_p50_ms %.4f; calibration kernel %.4f ms\n",
              median(raw_setup_s), runs_windows.median_rate(),
              percentile(durations(cold_ms, nullptr), 0.50),
              percentile(durations(warm_ms, nullptr), 0.50), host.median_ms());

  if (!options.trace) {
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("runs_per_s", runs_windows.median_rate(&host));
    result.set("rows_per_s", rows_windows.median_rate(&host));
    const std::vector<double> cold = durations(cold_ms, &host);
    const std::vector<double> warm = durations(warm_ms, &host);
    result.set("cold_p50_ms", percentile(cold, 0.50));
    result.set("cold_p90_ms", percentile(cold, 0.90));
    result.set("warm_p50_ms", percentile(warm, 0.50));
    result.set("warm_p75_ms", percentile(warm, 0.75));
    return result;
  }
  result.set("host.calibration_ms", host.median_ms());

  // --- per-layer metrics --------------------------------------------------
  result.set("samples.cold", static_cast<double>(cold_count));
  result.set("samples.warm", static_cast<double>(warm_count));
  result.set("engine.runs_per_cpu_s", static_cast<double>(total.runs) / cpu_s);
  result.set("engine.rounds_per_run", total.mean_rounds());
  result.set("engine.terminated_ratio", total.termination_rate());
  result.set("engine.orbit_hit_ratio",
             static_cast<double>(engine.orbit_hits()) / static_cast<double>(total.runs));
  result.set("knowledge.store_high_water",
             static_cast<double>(engine.store_high_water()));
  if (slice_runs[0] > 0 && slice_runs[1] > 0) {
    result.set("trace.overhead_share",
               (slice_ns[1] / slice_runs[1]) / (slice_ns[0] / slice_runs[0]) - 1);
  }

  const auto spans = tracer.totals();
  double engine_ns_per_run = 0;
  for (const Case& c : cases) {
    const auto it = spans.find(c.span_name);
    if (it == spans.end()) continue;
    const double ns = static_cast<double>(it->second.total_ns) /
                      static_cast<double>(it->second.count * c.def.runs_per_request);
    result.set("engine.ns_per_run." + c.def.name, ns);
    engine_ns_per_run += ns / static_cast<double>(cases.size());
  }

  // Replay every layer on runs sampled from the hot set, outside the loop.
  std::vector<std::pair<rsb::Experiment, std::vector<SampledRun>>> sampled;
  std::vector<std::string> texts;
  for (const Answer& hot : prepared.hot) {
    if (sampled.size() == cases.size()) break;
    Case& c = cases[hot.request.case_index];
    const std::uint64_t count =
        std::min<std::uint64_t>(hot.request.range.count,
                                backend == Backend::kKnowledge ? 256 : 2);
    c.spec.seeds = hot.request.range;
    sampled.emplace_back(c.spec,
                         sample_runs(c.spec, hot.request.range.first, count));
    texts.push_back(with_seeds(c.def.text, hot.request.range));
  }
  tracer.set_enabled(true);
  if (backend == Backend::kKnowledge) {
    replay_knowledge_layers(sampled, engine_ns_per_run, tracer, result);
  } else {
    replay_agent_layers(sampled, engine_ns_per_run, tracer, result);
  }
  replay_parse_expand(texts, tracer, result);
  return result;
}

}  // namespace rsbbench
