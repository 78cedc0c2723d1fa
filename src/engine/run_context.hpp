// Per-worker mutable state and the free-standing run functions.
//
// A RunContext is everything a worker's runs mutate — the lane kernel's
// structure-of-arrays state (per-lane KnowledgeStore intern tables, coin
// engines, knowledge columns), round and decide scratch, the agent
// backend's payload arena, and the store high-water diagnostic. It is a
// plain value: the Engine owns one for serial sweeps and single runs, and
// the parallel scheduler gives every worker its own, so any worker can
// execute any (spec, seed) pair independently.
//
// Every knowledge-backend run goes through one kernel, run_prepared_batch:
// a sweep window of B runs executes as B lockstep lanes, a single run
// (Engine::run, batch = 1, a chunk's tail) as a shorter batch of one or
// more lanes. The determinism contract (DESIGN.md, "Concurrency model"):
// each lane's outcome is a pure function of (spec, seed, ports) — lanes
// recycle allocations, never state, because every lane's store, coins and
// columns are reset at the top of each batch. KnowledgeIds are lane-local:
// an id produced in one lane must never be compared with, or looked up
// in, another lane's store.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/orbit.hpp"
#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "sim/payload.hpp"
#include "util/rng.hpp"

namespace rsb {

/// One lane's worth of input to run_prepared_batch: the run seed plus its
/// port wiring (null on the blackboard).
struct LaneRequest {
  std::uint64_t seed = 0;
  const PortAssignment* ports = nullptr;
};

/// Structure-of-arrays state of the lane kernel (run_prepared_batch): B
/// lanes of one spec advance through a shared round schedule, each lane
/// owning exactly the per-run state that determines ids and outcomes —
/// its KnowledgeStore (ids are store-local, so lanes can never share one),
/// knowledge column, raw coin engines, and crash schedule. Round scratch
/// and the decision buffers are shared across lanes: a round operator
/// finishes with one lane before the next lane starts, and every shared
/// buffer is overwritten at entry, so nothing leaks between lanes (every
/// width reproduces tests/golden/knowledge_outcomes.txt run for run —
/// property laws 14-15).
struct BatchedRunContext {
  struct Lane {
    KnowledgeStore store;
    std::vector<KnowledgeId> knowledge;
    std::vector<int> crash_round;
    /// One raw engine per source, seeded like the SourceBank's: drawing
    /// one next_bit per source per executed round replays the bank's
    /// stream draw-for-draw (the bank extends all sources by one bit per
    /// round), without the bank's emitted-history buffers.
    std::vector<Xoshiro256StarStar> coins;
    std::optional<PortAssignment> ports_storage;  // kRandomPerRun copy
    const PortAssignment* ports = nullptr;
    ProtocolOutcome outcome;
    int undecided = 0;
    /// Rounds of source bits this lane drew — the run's consumed-prefix
    /// length, the level an orbit memo entry lives at (engine/orbit.hpp).
    int consumed = 0;
    bool faulty = false;
    bool done = false;
  };
  std::vector<Lane> lanes;
  /// Scratch for the sweep loop's span of lane inputs; with orbit dedup
  /// on it holds only the lookup misses.
  std::vector<LaneRequest> requests;
  std::vector<unsigned char> source_bits;  // per-round per-source scratch
  std::vector<std::optional<std::int64_t>> verdicts;  // decide_all output
  std::vector<KnowledgeId> decide_scratch;            // decide_all scratch
  // Sorted copy of a lane's pre-round knowledge vector: input to the
  // protocol's pre-round decision hook (decide_round_from_prev) and, on
  // the blackboard, the round operator's shared multiset — one sort per
  // lane-round serves both.
  std::vector<KnowledgeId> sorted_prev;
};

/// The scratch state of one worker. Default-constructed contexts are
/// ready to use; reuse across runs amortizes all allocations.
struct RunContext {
  std::size_t store_high_water = 0;  // peak lane-store size seen so far
  std::vector<bool> bits;           // per-round party-bit scratch
  std::vector<int> crash_round;     // agent-backend fault-draw scratch
  RoundScratch round_scratch;       // in-place round-operator buffers
  BatchedRunContext batched;        // lane-kernel state (run_prepared_batch)
  std::vector<OrbitProbe> orbit_probes;  // per-lane dedup scratch
  sim::PayloadArena arena;          // agent-backend payload pool (lent to
                                    // each run's sim::Network)
};

/// The knowledge-backend kernel: the runs described by `requests`
/// executed in lockstep over ctx.batched — requests[l] drives
/// ctx.batched.lanes[l], and one shared round loop advances every live
/// lane through the same instruction stream. Any number of lanes >= 1 is
/// valid; a single run is a one-lane batch. Each lane's outcome
/// (ctx.batched.lanes[l].outcome) is a pure function of (spec, seed,
/// ports), independent of the batch's width and of its other lanes. Under
/// a fault plan a lane's crash schedule is drawn from the plan's per-run
/// seed stream and reported back in the outcome's crash_round. A lane's
/// `ports` must be non-null iff the spec is message passing and stay
/// valid for the whole call — callers point into storage they own (lane
/// ports_storage, an OrbitProbe's wiring copy, or a PortProvider's
/// run-invariant assignment).
void run_prepared_batch(RunContext& ctx, const Experiment& spec,
                        std::span<const LaneRequest> requests);

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
