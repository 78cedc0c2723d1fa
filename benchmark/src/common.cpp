#include "common.hpp"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "engine/collector.hpp"
#include "host_speed.hpp"
#include "engine/engine.hpp"
#include "graph/topology.hpp"
#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "randomness/source_bank.hpp"
#include "service/canonical.hpp"
#include "sim/network.hpp"
#include "sim/payload.hpp"
#include "util/rng.hpp"

namespace rsbbench {

namespace {

// Result sinks the compiler cannot drop, so replayed calls are not elided.
volatile std::uint64_t g_sink = 0;

std::string ones(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += i == 0 ? "1" : ",1";
  return out;
}

/// A weighted mean: add(value, weight) accumulates value over weight.
struct MeanOf {
  double sum = 0;
  double count = 0;
  void add(double value, double weight = 1) {
    sum += value;
    count += weight;
  }
  double mean() const { return count == 0 ? 0 : sum / count; }
};

}  // namespace

const std::vector<MetricName>& end_to_end_metrics() {
  static const std::vector<MetricName> names = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"runs_per_s", "runs/s"},  {"rows_per_s", "rows/s"},
      {"cold_p50_ms", "ms"},     {"cold_p90_ms", "ms"},
      {"warm_p50_ms", "ms"},     {"warm_p75_ms", "ms"},
  };
  return names;
}

const std::vector<MetricName>& per_layer_metrics() {
  static const std::vector<MetricName> names = {
      {"randomness.ns_per_bit", "ns"},
      {"randomness.bits_per_run", "bits"},
      {"model.round_ns", "ns"},
      {"knowledge.nodes_per_run", "count"},
      {"knowledge.store_high_water", "count"},
      {"algo.decide_ns", "ns"},
      {"tasks.judge_ns", "ns"},
      {"engine.ns_per_run.bb-le-n6", "ns"},
      {"engine.ns_per_run.bb-uniq-n6", "ns"},
      {"engine.ns_per_run.bb-corr-231", "ns"},
      {"engine.ns_per_run.mp-le-n5", "ns"},
      {"engine.ns_per_run.bb-crash1-n6", "ns"},
      {"engine.ns_per_run.luby-mis", "ns"},
      {"engine.ns_per_run.trial-coloring", "ns"},
      {"engine.ns_per_run.gossip-le-clique", "ns"},
      {"engine.ns_per_run.gossip-le-delay", "ns"},
      {"engine.runs_per_cpu_s", "runs/s"},
      {"engine.rounds_per_run", "rounds"},
      {"engine.terminated_ratio", "ratio"},
      {"engine.port_draw_ns", "ns"},
      {"engine.collector_ns_per_run", "ns"},
      {"engine.replay_coverage", "ratio"},
      {"engine.orbit_hit_ratio", "ratio"},
      {"sim.network_build_ns", "ns"},
      {"sim.step_ns", "ns"},
      {"sim.messages_per_run", "count"},
      {"sim.ns_per_message", "ns"},
      {"sim.payload_bytes_per_run", "bytes"},
      {"graph.judge_ns", "ns"},
      {"graph.topology_build_ns", "ns"},
      {"service.parse_expand_ns", "ns"},
      {"service.accept_ms", "ms"},
      {"service.first_row_ms", "ms"},
      {"service.chunk_exec_ns", "ns"},
      {"service.client_parse_ns", "ns"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"},
      {"service.runs_cached_ratio", "ratio"},
      {"service.runs_deduped", "count"},
      {"service.jobs_rejected", "count"},
      {"server.fd_growth", "count"},
      {"samples.cold", "count"},
      {"samples.warm", "count"},
      {"trace.overhead_share", "ratio"},
      {"host.calibration_ms", "ms"},
  };
  return names;
}

std::vector<SpecCase> knowledge_cases() {
  using Inv = SpecCase::Invariant;
  const std::string n6 = "loads=" + ones(6) + "\n";
  return {
      {"bb-le-n6",
       n6 + "protocol=wait-for-singleton-LE\ntask=leader-election\n", 1024,
       Inv::kEveryRunSucceeds},
      {"bb-uniq-n6",
       n6 + "protocol=blackboard-unique-string-LE\ntask=leader-election\n",
       256, Inv::kNone},
      {"bb-corr-231",
       "loads=2,3,1\nprotocol=wait-for-singleton-LE\ntask=leader-election\n",
       1024, Inv::kEveryRunSucceeds},
      {"mp-le-n5",
       "model=message-passing\nloads=" + ones(5) +
           "\nprotocol=wait-for-singleton-LE\ntask=leader-election\n",
       512, Inv::kEveryRunSucceeds},
      {"bb-crash1-n6",
       n6 + "fault-crashes=1\nprotocol=wait-for-singleton-LE\n"
            "task=t-resilient-leader-election(1)\n",
       768, Inv::kNone},
  };
}

std::vector<SpecCase> service_cases() {
  std::vector<SpecCase> out;
  for (const SpecCase& c : knowledge_cases()) {
    if (c.name == "bb-le-n6" || c.name == "bb-uniq-n6" || c.name == "mp-le-n5") {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<SpecCase> agent_cases(std::uint64_t seed) {
  using Inv = SpecCase::Invariant;
  const std::string topology_seed =
      "topology-seed=" + std::to_string(0x70b01ULL + seed) + "\n";
  return {
      {"luby-mis",
       "model=message-passing\nloads=" + ones(4096) +
           "\nagents=luby-mis\ntopology=d-regular(3)\n" + topology_seed +
           "task=mis\n",
       1, Inv::kTerminatedRunsValid},
      {"trial-coloring",
       "model=message-passing\nloads=" + ones(1024) +
           "\nagents=trial-coloring\ntopology=ring\ntask=coloring\n",
       4, Inv::kTerminatedRunsValid},
      {"gossip-le-clique",
       "model=message-passing\nloads=" + ones(128) +
           "\nagents=gossip-le\ntask=leader-election\n",
       1, Inv::kTerminatedRunsValid},
      {"gossip-le-delay",
       "model=message-passing\nloads=" + ones(32) +
           "\nagents=gossip-le\nsched=random-delay(3)\ntask=leader-election\n",
       24, Inv::kTerminatedRunsValid},
  };
}

std::uint64_t seed_base(std::uint64_t seed) {
  // 2^32 seeds per benchmark seed (no workload comes near using them all),
  // aligned so every range the workloads build from it is chunk-aligned.
  return (1 + seed % (1ULL << 20)) << 32;
}

std::string with_seeds(const std::string& text, rsb::SeedRange range) {
  return text + "seeds=" + std::to_string(range.first) + "+" +
         std::to_string(range.count) + "\n";
}

rsb::Experiment to_experiment(const std::string& text_with_seeds) {
  return rsb::service::CanonicalSpec::parse(text_with_seeds).to_experiment();
}

std::string check_invariant(const SpecCase& c, const rsb::RunStats& stats) {
  switch (c.invariant) {
    case SpecCase::Invariant::kNone:
      return {};
    case SpecCase::Invariant::kEveryRunSucceeds:
      if (stats.task_successes != stats.runs) {
        return c.name + ": " + std::to_string(stats.runs - stats.task_successes) +
               " of " + std::to_string(stats.runs) +
               " fault-free LE runs failed to elect";
      }
      return {};
    case SpecCase::Invariant::kTerminatedRunsValid:
      if (stats.task_successes != stats.terminated) {
        return c.name + ": " +
               std::to_string(stats.terminated - stats.task_successes) +
               " terminated runs judged invalid";
      }
      return {};
  }
  return {};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

void RateWindows::add(std::int64_t at_ns, double amount) {
  const auto index = static_cast<std::size_t>((at_ns - start_) / window_ns_);
  if (windows_.size() <= index) windows_.resize(index + 1);
  Window& w = windows_[index];
  if (w.completions++ == 0) {
    w.first = at_ns;
  } else {
    w.amount_after_first += amount;
  }
  w.last = at_ns;
}

double RateWindows::median_rate(const HostSpeed* host) const {
  std::vector<double> rates;
  for (const Window& w : windows_) {
    if (w.completions >= 2 && w.last > w.first) {
      const double rate = w.amount_after_first / ((w.last - w.first) / 1e9);
      rates.push_back(host == nullptr ? rate : rate / host->time_factor(w.first));
    }
  }
  return median(std::move(rates));
}

std::vector<double> durations(const std::vector<Timed>& samples,
                              const HostSpeed* host) {
  std::vector<double> out;
  for (const Timed& t : samples) {
    out.push_back(host == nullptr ? t.ms : t.ms * host->time_factor(t.at_ns));
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int open_fd_count() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count - 1;  // the directory stream's own fd
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::vector<SampledRun> sample_runs(const rsb::Experiment& spec,
                                    std::uint64_t first, std::uint64_t count) {
  rsb::Experiment sub = spec;
  sub.seeds = rsb::SeedRange::of(first, count);
  rsb::Engine engine;
  auto recorded = engine.run_collect(
      sub, rsb::fold_collector(
               std::vector<SampledRun>{},
               [](std::vector<SampledRun>& runs, const rsb::RunView& view,
                  const rsb::ProtocolOutcome& outcome) {
                 SampledRun run;
                 run.seed = view.seed;
                 if (view.ports != nullptr) run.ports = *view.ports;
                 run.outcome = outcome;
                 runs.push_back(std::move(run));
               },
               [](std::vector<SampledRun>& runs,
                  std::vector<SampledRun>&& shard) {
                 for (SampledRun& run : shard) runs.push_back(std::move(run));
               }));
  return std::move(recorded.state());
}

namespace {

/// Times RunStats::observe over the sampled runs (engine.collector_ns_per_run)
/// and returns the mean ns per run.
double replay_collector(const rsb::Experiment& spec,
                        const std::vector<SampledRun>& runs, Tracer& tracer) {
  rsb::RunStats stats;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const rsb::RunView view{runs[i].seed, i,
                            runs[i].ports ? &*runs[i].ports : nullptr, &spec};
    stats.observe(view, runs[i].outcome);
  }
  const std::int64_t end = now_ns();
  tracer.record("engine.collector", start, end, -1, 0);
  g_sink = g_sink + stats.runs;
  return runs.empty() ? 0 : static_cast<double>(end - start) / runs.size();
}

/// Times PortAssignment::random for the spec's party count, seeded per run
/// (engine.port_draw_ns); 0 when the spec draws no per-run wiring.
double replay_port_draw(const rsb::Experiment& spec,
                        const std::vector<SampledRun>& runs, Tracer& tracer) {
  if (spec.port_policy != rsb::PortPolicy::kRandomPerRun ||
      spec.topology != nullptr) {
    return -1;
  }
  const int n = spec.config.num_parties();
  const std::int64_t start = now_ns();
  for (const SampledRun& run : runs) {
    rsb::Xoshiro256StarStar rng(run.seed);
    g_sink = g_sink + static_cast<std::uint64_t>(
                          rsb::PortAssignment::random(n, rng).neighbor(0, 1));
  }
  const std::int64_t end = now_ns();
  tracer.record("engine.port_draw", start, end, -1, 0);
  return runs.empty() ? 0 : static_cast<double>(end - start) / runs.size();
}

void judge(const rsb::Experiment& spec, const rsb::ProtocolOutcome& outcome,
           const char* span, const Span& root, std::uint64_t request,
           Tracer& tracer, MeanOf& judge_ns) {
  if (!spec.task.has_value() || !outcome.terminated) return;
  const std::int64_t start = now_ns();
  const bool ok =
      outcome.crash_round.empty()
          ? spec.task->admits_outputs(outcome.outputs)
          : spec.task->admits_surviving_outputs(outcome.outputs,
                                                outcome.crash_round);
  const std::int64_t end = now_ns();
  tracer.record(span, start, end, root.index(), request);
  g_sink = g_sink + (ok ? 1 : 0);
  judge_ns.add(static_cast<double>(end - start));
}

/// Mean time a replayed run spent in its layer spans: the root spans'
/// duration minus their self time.
double layer_ns_per_run(const Tracer& tracer, const char* root) {
  const auto totals = tracer.totals();
  const auto it = totals.find(root);
  if (it == totals.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.total_ns - it->second.self_ns) /
         static_cast<double>(it->second.count);
}

}  // namespace

void replay_knowledge_layers(
    const std::vector<std::pair<rsb::Experiment, std::vector<SampledRun>>>& specs,
    double engine_ns_per_run, Tracer& tracer, Result& result) {
  MeanOf ns_per_bit, bits_per_run, round_ns, nodes_per_run, decide_ns,
      judge_ns, port_ns, collector_ns;
  double outside_runs_ns = 0;  // port draw + collector, per run, summed over specs
  std::uint64_t request = 0;
  for (const auto& [spec, runs] : specs) {
    const int n = spec.config.num_parties();
    const bool faulty = spec.faults.any();
    for (const SampledRun& run : runs) {
      ++request;
      // One replayed run: draw its coins, then the scalar knowledge
      // recursion through the allocating round wrappers with per-party
      // decide, as the engine's reference path does (crash schedules are
      // not replayed: the wrappers have no crash column).
      Span root(tracer, "replay.knowledge_run", -1, request);
      const int rounds = std::max(run.outcome.rounds, 1);
      rsb::SourceBank bank(spec.config, run.seed);
      std::int64_t t0 = now_ns();
      const rsb::Realization realization = bank.realization_at(rounds);
      std::int64_t t1 = now_ns();
      tracer.record("randomness.realization_at", t0, t1, root.index(), request);
      g_sink = g_sink + static_cast<std::uint64_t>(realization.time());
      const double bits = static_cast<double>(spec.config.num_sources()) * rounds;
      ns_per_bit.add(static_cast<double>(t1 - t0), bits);
      bits_per_run.add(bits);

      rsb::KnowledgeStore store;
      std::vector<rsb::KnowledgeId> knowledge =
          rsb::initial_knowledge(store, n);
      std::vector<bool> bits_now(static_cast<std::size_t>(n));
      std::vector<std::int64_t> outputs(static_cast<std::size_t>(n), 0);
      std::vector<int> decided_at(static_cast<std::size_t>(n), -1);
      int undecided = n;
      int last_round = 0;
      for (int round = 1; round <= spec.max_rounds && undecided > 0; ++round) {
        for (int party = 0; party < n; ++party) {
          bits_now[static_cast<std::size_t>(party)] =
              bank.party_bit(party, round);
        }
        t0 = now_ns();
        knowledge = spec.model == rsb::Model::kBlackboard
                        ? rsb::blackboard_round(store, knowledge, bits_now)
                        : rsb::message_round(store, knowledge, bits_now,
                                             *run.ports, spec.variant);
        t1 = now_ns();
        tracer.record("model.round", t0, t1, root.index(), request);
        round_ns.add(static_cast<double>(t1 - t0));
        for (int party = 0; party < n; ++party) {
          if (decided_at[static_cast<std::size_t>(party)] >= 0) continue;
          t0 = now_ns();
          const auto verdict = spec.protocol->decide(
              store, knowledge[static_cast<std::size_t>(party)]);
          t1 = now_ns();
          tracer.record("algo.decide", t0, t1, root.index(), request);
          decide_ns.add(static_cast<double>(t1 - t0));
          if (verdict.has_value()) {
            outputs[static_cast<std::size_t>(party)] = *verdict;
            decided_at[static_cast<std::size_t>(party)] = round;
            --undecided;
            last_round = round;
          }
        }
      }
      nodes_per_run.add(static_cast<double>(store.size()));
      if (!faulty && run.outcome.terminated &&
          (outputs != run.outcome.outputs || last_round != run.outcome.rounds)) {
        result.fail("replay of seed " + std::to_string(run.seed) +
                    " through the round wrappers disagrees with the engine");
      }
      judge(spec, run.outcome, "tasks.judge", root, request, tracer, judge_ns);
    }
    const double port = replay_port_draw(spec, runs, tracer);
    if (port >= 0) {
      port_ns.add(port);
      outside_runs_ns += port;
    }
    const double collector = replay_collector(spec, runs, tracer);
    collector_ns.add(collector);
    outside_runs_ns += collector;
  }
  result.set("randomness.ns_per_bit", ns_per_bit.mean());
  result.set("randomness.bits_per_run", bits_per_run.mean());
  result.set("model.round_ns", round_ns.mean());
  result.set("knowledge.nodes_per_run", nodes_per_run.mean());
  result.set("algo.decide_ns", decide_ns.mean());
  result.set("tasks.judge_ns", judge_ns.mean());
  result.set("engine.port_draw_ns", port_ns.mean());
  result.set("engine.collector_ns_per_run", collector_ns.mean());
  if (engine_ns_per_run > 0 && !specs.empty()) {
    result.set("engine.replay_coverage",
               (layer_ns_per_run(tracer, "replay.knowledge_run") +
                outside_runs_ns / static_cast<double>(specs.size())) /
                   engine_ns_per_run);
  }
}

void replay_agent_layers(
    const std::vector<std::pair<rsb::Experiment, std::vector<SampledRun>>>& specs,
    double engine_ns_per_run, Tracer& tracer, Result& result) {
  MeanOf build_ns, step_ns, messages, ns_per_message, payload_bytes,
      graph_judge_ns, task_judge_ns, topology_ns, port_ns, collector_ns;
  double outside_runs_ns = 0;  // port draw + collector, per run, summed over specs
  rsb::sim::PayloadArena arena;
  std::vector<int> crash_round;
  std::uint64_t request = 0;
  for (const auto& [spec, runs] : specs) {
    const int n = spec.config.num_parties();
    if (spec.topology != nullptr) {
      const std::int64_t t0 = now_ns();
      const auto rebuilt = rsb::graph::make_topology(spec.topology->name(), n,
                                                     spec.topology_seed);
      const std::int64_t t1 = now_ns();
      tracer.record("graph.topology_build", t0, t1, -1, 0);
      topology_ns.add(static_cast<double>(t1 - t0));
      if (!(*rebuilt == *spec.topology)) {
        result.fail("topology " + spec.topology->name() +
                    " rebuilt differently from the same seed");
      }
    }
    for (const SampledRun& run : runs) {
      ++request;
      Span root(tracer, "replay.agent_run", -1, request);
      spec.faults.draw(n, run.seed, crash_round);
      std::int64_t t0 = now_ns();
      rsb::sim::Network net(spec.model, spec.config, run.seed, run.ports,
                            spec.factory, spec.scheduler, crash_round, &arena,
                            spec.topology.get());
      std::int64_t t1 = now_ns();
      tracer.record("sim.network_build", t0, t1, root.index(), request);
      build_ns.add(static_cast<double>(t1 - t0));
      double run_step_ns = 0;
      bool done = false;
      for (int r = 0; r < spec.max_rounds && !done; ++r) {
        t0 = now_ns();
        done = net.step();
        t1 = now_ns();
        tracer.record("sim.step", t0, t1, root.index(), request);
        step_ns.add(static_cast<double>(t1 - t0));
        run_step_ns += static_cast<double>(t1 - t0);
      }
      const double routed = static_cast<double>(net.messages_routed());
      messages.add(routed);
      if (routed > 0) ns_per_message.add(run_step_ns, routed);
      payload_bytes.add(static_cast<double>(net.arena().bytes_interned()));
      if (done != run.outcome.terminated || net.round() != run.outcome.rounds) {
        result.fail("replay of seed " + std::to_string(run.seed) +
                    " through sim::Network disagrees with the engine");
      }
      const bool graph_task = spec.task && spec.task->has_refinement();
      judge(spec, run.outcome, graph_task ? "graph.judge" : "tasks.judge", root,
            request, tracer, graph_task ? graph_judge_ns : task_judge_ns);
    }
    const double port = replay_port_draw(spec, runs, tracer);
    if (port >= 0) {
      port_ns.add(port);
      outside_runs_ns += port;
    }
    const double collector = replay_collector(spec, runs, tracer);
    collector_ns.add(collector);
    outside_runs_ns += collector;
  }
  result.set("sim.network_build_ns", build_ns.mean());
  result.set("sim.step_ns", step_ns.mean());
  result.set("sim.messages_per_run", messages.mean());
  result.set("sim.ns_per_message", ns_per_message.mean());
  result.set("sim.payload_bytes_per_run", payload_bytes.mean());
  result.set("graph.judge_ns", graph_judge_ns.mean());
  result.set("graph.topology_build_ns", topology_ns.mean());
  result.set("tasks.judge_ns", task_judge_ns.mean());
  result.set("engine.port_draw_ns", port_ns.mean());
  result.set("engine.collector_ns_per_run", collector_ns.mean());
  if (engine_ns_per_run > 0 && !specs.empty()) {
    result.set("engine.replay_coverage",
               (layer_ns_per_run(tracer, "replay.agent_run") +
                outside_runs_ns / static_cast<double>(specs.size())) /
                   engine_ns_per_run);
  }
}

void replay_parse_expand(const std::vector<std::string>& request_texts,
                         Tracer& tracer, Result& result) {
  MeanOf ns;
  for (const std::string& text : request_texts) {
    const std::int64_t t0 = now_ns();
    for (const auto& point : rsb::service::expand_request(text)) {
      g_sink = g_sink + point.spec.hash() +
               point.spec.to_experiment().seeds.count;
    }
    const std::int64_t t1 = now_ns();
    tracer.record("service.parse_expand", t0, t1, -1, 0);
    ns.add(static_cast<double>(t1 - t0));
  }
  result.set("service.parse_expand_ns", ns.mean());
}

}  // namespace rsbbench
