// The three workloads the benchmark runs; see README.md for what each one
// measures and which layers it bypasses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace rsbbench {

enum class Backend { kKnowledge, kAgents };

/// knowledge-sweep (knowledge_cases, kKnowledge) and graph-agents
/// (agent_cases, kAgents): a serial Engine answering a closed request loop.
Result run_in_process(const Options& options, const std::vector<SpecCase>& defs,
                      Backend backend);

/// service-mixed: an in-process service::Server driven by an interactive
/// and a bulk closed-loop client.
Result run_service_mixed(const Options& options);

/// What one submit drew from the daemon.
struct Reply {
  std::string error;              // the reject reason, if any
  std::vector<std::string> rows;  // raw row payloads, in arrival order
  std::uint64_t runs = 0;         // summed over the rows
  std::uint64_t terminated = 0;   // from the done summary
  std::uint64_t total_rounds = 0;
  std::int64_t sent = 0, accepted = 0, first_row = 0, done = 0;
};

/// Submits one spec on a fresh connection and reads until `done` or an
/// error line. Every response line goes through json::Value::parse, as a
/// client of the wire protocol would; the accept, first-row and parse
/// intervals are recorded as spans.
Reply submit(int port, const std::string& text, Tracer& tracer,
             std::uint64_t request);

/// Fills every per-layer time metric the workload left unset (the layers
/// it bypasses) by probing that layer on the benchmark's canonical inputs:
/// knowledge specs, agent specs, or a short-lived Server. Counters and
/// ratios stay as the workload measured them.
void probe_bypassed_layers(const Options& options, Result& result);

}  // namespace rsbbench
