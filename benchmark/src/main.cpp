// rsb_bench: runs one named workload from a workload seed, checks its
// outputs, and prints the result as one JSON line (the last line of stdout):
//
//   rsb_bench --workload knowledge-sweep --seed 7 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload with spans recorded in memory and prints the
// per-layer metrics instead. See README.md for every metric and workload.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using rsbbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rsb_bench: %s\nusage: rsb_bench --workload "
               "knowledge-sweep|graph-agents|service-mixed --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) usage("arguments come in --key value pairs");
  if (options.workload.empty() || !have_seed || options.seconds <= 0) {
    usage("--workload, --seed and --seconds are required");
  }
  return options;
}

void print_json(const rsbbench::Result& result,
                const std::vector<rsbbench::MetricName>& names) {
  bool finite = true;
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = result.metrics.find(name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    finite = finite && std::isfinite(value);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(name).append("\": {\"value\": ");
    metrics.append(buffer).append(", \"unit\": \"").append(unit).append("\"}");
  }
  const bool correct = result.failed == 0 && finite && result.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    rsbbench::Result result;
    if (options.workload == "knowledge-sweep") {
      result = rsbbench::run_in_process(options, rsbbench::knowledge_cases(),
                                        rsbbench::Backend::kKnowledge);
    } else if (options.workload == "graph-agents") {
      result = rsbbench::run_in_process(
          options, rsbbench::agent_cases(options.seed),
          rsbbench::Backend::kAgents);
    } else if (options.workload == "service-mixed") {
      result = rsbbench::run_service_mixed(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    if (options.trace) rsbbench::probe_bypassed_layers(options, result);
    for (const std::string& problem : result.problems) {
      std::fprintf(stderr, "rsb_bench: check failed: %s\n", problem.c_str());
    }
    std::fflush(stderr);
    print_json(result, options.trace ? rsbbench::per_layer_metrics()
                                     : rsbbench::end_to_end_metrics());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rsb_bench: %s\n", e.what());
    return 1;
  }
}
