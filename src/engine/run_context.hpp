// Per-worker mutable state and the free-standing run functions.
//
// A RunContext is everything a worker's runs mutate — the knowledge
// kernel's per-run state (the KnowledgeStore intern table, coin engines,
// knowledge and crash columns, the outcome), round and decide scratch,
// the agent backend's payload arena, and the store high-water diagnostic.
// It is a plain value: the Engine owns one for serial sweeps and single
// runs, and the parallel scheduler gives every worker its own, so any
// worker can execute any (spec, seed) pair independently.
//
// Every knowledge-backend run goes through one kernel, run_prepared, one
// run at a time. The determinism contract (DESIGN.md, "Concurrency
// model"): each run's outcome is a pure function of (spec, seed, ports) —
// runs recycle allocations, never state, because the store, coins and
// columns are reset at the top of every run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/orbit.hpp"
#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "sim/payload.hpp"
#include "util/rng.hpp"

namespace rsb {

/// The scratch state of one worker. Default-constructed contexts are
/// ready to use; reuse across runs amortizes all allocations.
struct RunContext {
  // Per-run state of the knowledge kernel (run_prepared), reset at the
  // top of every run.
  KnowledgeStore store;
  std::vector<KnowledgeId> knowledge;
  /// The run's crash schedule (empty when fault-free); the agent backend
  /// reuses it as fault-draw scratch.
  std::vector<int> crash_round;
  /// One raw engine per source, seeded like the SourceBank's: drawing one
  /// next_bit per source per executed round replays the bank's stream
  /// draw-for-draw (the bank extends all sources by one bit per round),
  /// without the bank's emitted-history buffers.
  std::vector<Xoshiro256StarStar> coins;
  ProtocolOutcome outcome;
  /// Rounds of source bits the last run drew — its consumed-prefix
  /// length, the level an orbit memo entry lives at (engine/orbit.hpp).
  int consumed = 0;

  // Round and decide scratch, overwritten at entry by every user.
  std::vector<unsigned char> source_bits;  // per-round per-source bits
  std::vector<bool> bits;                  // per-round party bits
  std::vector<std::optional<std::int64_t>> verdicts;  // decide_all output
  std::vector<KnowledgeId> decide_scratch;            // decide_all scratch
  // Sorted copy of the pre-round knowledge vector: input to the
  // protocol's pre-round decision hook (decide_round_from_prev) and, on
  // the blackboard, the round operator's shared multiset — one sort per
  // round serves both.
  std::vector<KnowledgeId> sorted_prev;
  RoundScratch round_scratch;  // in-place round-operator buffers

  OrbitProbe orbit_probe;    // orbit-dedup scratch for the current run
  sim::PayloadArena arena;   // agent-backend payload pool (lent to each
                             // run's sim::Network)
  std::size_t store_high_water = 0;  // peak store size seen so far
};

/// The knowledge-backend kernel: one run of `spec` at `seed` over ctx's
/// per-run state. The outcome (returned; it lives in ctx.outcome until
/// the next run) is a pure function of (spec, seed, ports). Under a fault
/// plan the crash schedule is drawn from the plan's per-run seed stream
/// and reported back in the outcome's crash_round. `ports` must be
/// non-null iff the spec is message passing, and only needs to stay valid
/// for the call — a PortProvider's next() pointer qualifies.
const ProtocolOutcome& run_prepared(RunContext& ctx, const Experiment& spec,
                                    std::uint64_t seed,
                                    const PortAssignment* ports);

/// One agent-level run of `spec` at `seed` through a fresh sim::Network,
/// under the spec's scheduler and fault plan. The network owns its own
/// state; `ctx` only lends the fault-draw scratch vector. Deterministic in
/// (spec, seed, ports).
ProtocolOutcome run_agent_prepared(RunContext& ctx, const Experiment& spec,
                                   std::uint64_t seed,
                                   const PortAssignment* ports);

/// Per-batch port provider: materializes the port policy once (fixed
/// policies) or per run (kRandomPerRun, drawn from the port_seed stream).
/// next() yields the assignment for run 0, 1, 2, ... in order; skip_to()
/// repositions the provider so a worker can jump to any chunk while
/// consuming the rng draw-for-draw as the serial sweep would — the wiring
/// of run i is independent of which worker executes it, and of the order
/// the work-stealing scheduler hands chunks out. The rng state is
/// checkpointed every kCheckpointStride runs as the stream advances, so a
/// backward jump (a stolen chunk behind the worker's cursor) restores the
/// nearest checkpoint and replays at most a stride of draws — rewinds
/// stay O(stride), not O(run_index), however often the deque steals.
class PortProvider {
 public:
  PortProvider(Model model, PortPolicy policy,
               const std::optional<PortAssignment>& fixed,
               const SourceConfiguration& config, std::uint64_t port_seed);

  /// The assignment for the next run; null for blackboard runs.
  const PortAssignment* next();

  /// Repositions so that the following next() yields the assignment of
  /// run `run_index` (forwards or backwards).
  void skip_to(std::uint64_t run_index);

 private:
  static constexpr std::uint64_t kCheckpointStride = 1024;

  /// Records checkpoints_[produced_ / stride] when the cursor sits on a
  /// stride boundary it has not checkpointed yet (kRandomPerRun only).
  void maybe_checkpoint();
  /// Consumes one run's worth of stream (kRandomPerRun), checkpointing.
  void advance_one();

  PortPolicy policy_;
  Xoshiro256StarStar rng_;
  int num_parties_ = 0;
  std::uint64_t produced_ = 0;  // runs whose assignment has been drawn
  std::optional<PortAssignment> current_;
  std::vector<Xoshiro256StarStar> checkpoints_;  // state at k*stride
};

}  // namespace rsb
