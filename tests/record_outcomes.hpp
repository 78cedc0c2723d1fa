// A test collector that keeps every run of a sweep: its seed, run index, a
// copy of its wiring (when it had one) and its outcome. The engine hands
// each shard a contiguous run range and merges shards in run-index order,
// so merge is a plain append and the recorded runs come back in run-index
// order under every ParallelConfig — which is what the ordering tests
// assert.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "engine/engine.hpp"

namespace rsb {

struct RecordedRun {
  std::uint64_t seed = 0;
  std::uint64_t run_index = 0;
  std::optional<PortAssignment> ports;
  ProtocolOutcome outcome;

  friend bool operator==(const RecordedRun&, const RecordedRun&) = default;
};

struct RecordOutcomes {
  std::vector<RecordedRun> runs;

  void observe(const RunView& view, const ProtocolOutcome& outcome) {
    RecordedRun run{view.seed, view.run_index, std::nullopt, outcome};
    if (view.ports != nullptr) run.ports = *view.ports;
    runs.push_back(std::move(run));
  }

  void merge(RecordOutcomes&& other) {
    runs.insert(runs.end(), std::make_move_iterator(other.runs.begin()),
                std::make_move_iterator(other.runs.end()));
  }
};

/// Sweeps spec.seeds on `engine` and returns every run in run-index order.
inline std::vector<RecordedRun> record_runs(Engine& engine,
                                            const Experiment& spec) {
  return engine.run_collect(spec, RecordOutcomes{}).runs;
}

}  // namespace rsb
