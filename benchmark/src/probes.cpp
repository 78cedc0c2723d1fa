// Probes of the layers a workload bypasses, for its traced run.
//
// Every traced run prints every per-layer metric. A time metric of a layer
// the workload never calls would otherwise read 0 on every run, which says
// nothing about that layer; instead it is measured here on the benchmark's
// canonical inputs, on a seed region no workload sweeps. These probe
// figures describe the layer, not the workload's end-to-end numbers; the
// workload's own counters and ratios for a bypassed layer stay 0.
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "service/rows.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace rsbbench {

namespace {

bool is_time(const MetricName& metric) {
  const std::string unit = metric.unit;
  return unit == "ns" || unit == "ms";
}

double mean_ns(const Tracer& tracer, const std::string& name) {
  const auto totals = tracer.totals();
  const auto it = totals.find(name);
  return it == totals.end() || it->second.count == 0
             ? 0.0
             : static_cast<double>(it->second.total_ns) /
                   static_cast<double>(it->second.count);
}

/// Cold then warm submits of each spec to a fresh Server, plus run_chunk
/// on an engine configured like the server's.
void probe_service(const std::vector<SpecCase>& specs, std::uint64_t base,
                   Result& probe) {
  Tracer tracer;
  tracer.set_enabled(true);
  rsb::service::Server server({.threads = 2});
  server.start();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string text = with_seeds(
        specs[i].text, rsb::SeedRange::of(base + i * 1024, 1024));
    for (int pass = 0; pass < 2; ++pass) {
      const Reply reply = submit(server.port(), text, tracer, i);
      if (!reply.error.empty()) probe.fail("service probe rejected: " + reply.error);
    }
  }
  server.stop();
  probe.set("service.accept_ms", median(tracer.durations_ms("service.accept")));
  probe.set("service.first_row_ms",
            median(tracer.durations_ms("service.first_row")));
  probe.set("service.client_parse_ns", mean_ns(tracer, "client.parse"));

  rsb::Engine engine;
  rsb::ParallelConfig parallel;
  parallel.threads = 2;
  parallel.orbit = true;
  engine.set_parallel(parallel);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const rsb::SeedRange chunk =
        rsb::SeedRange::of(base + i * 1024, rsb::service::kChunkRuns);
    const rsb::Experiment spec = to_experiment(with_seeds(specs[i].text, chunk));
    const std::int64_t t0 = now_ns();
    rsb::service::run_chunk(engine, spec, chunk);
    tracer.record("service.chunk_exec", t0, now_ns(), -1, 0);
  }
  probe.set("service.chunk_exec_ns", mean_ns(tracer, "service.chunk_exec"));
}

}  // namespace

void probe_bypassed_layers(const Options& options, Result& result) {
  const auto missing = [&](const std::string& name) {
    return result.metrics.count(name) == 0;
  };
  // Above every region the workloads use (hot and cold request ranges sit
  // below seed_base + 2^31 + 5 * 2^28).
  const std::uint64_t base = seed_base(options.seed) + (13ULL << 28);
  Tracer tracer;
  tracer.set_enabled(true);
  Result probe;

  // Engine cost per run of every spec the workload did not sweep, and runs
  // sampled for the layer replays.
  std::vector<std::pair<rsb::Experiment, std::vector<SampledRun>>> knowledge,
      agents;
  for (const bool agent_backend : {false, true}) {
    for (const SpecCase& c : agent_backend ? agent_cases(options.seed)
                                           : knowledge_cases()) {
      const rsb::SeedRange range = rsb::SeedRange::of(base, c.runs_per_request);
      const rsb::Experiment spec = to_experiment(with_seeds(c.text, range));
      if (missing("engine.ns_per_run." + c.name)) {
        rsb::Engine engine;
        const std::int64_t t0 = now_ns();
        engine.run_collect(spec, rsb::RunStats{});
        probe.set("engine.ns_per_run." + c.name,
                  static_cast<double>(now_ns() - t0) /
                      static_cast<double>(range.count));
      }
      auto& sampled = agent_backend ? agents : knowledge;
      sampled.emplace_back(spec, sample_runs(spec, base, agent_backend ? 1 : 64));
    }
  }
  if (missing("model.round_ns")) replay_knowledge_layers(knowledge, 0, tracer, probe);
  if (missing("sim.step_ns")) replay_agent_layers(agents, 0, tracer, probe);
  if (missing("service.accept_ms")) probe_service(service_cases(), base, probe);

  for (const MetricName& metric : per_layer_metrics()) {
    const auto it = probe.metrics.find(metric.name);
    if (is_time(metric) && missing(metric.name) && it != probe.metrics.end()) {
      result.metrics[metric.name] = it->second;
    }
  }
  for (const std::string& problem : probe.problems) result.fail(problem);
}

}  // namespace rsbbench
