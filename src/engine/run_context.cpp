#include "engine/run_context.hpp"

#include <algorithm>

#include "sim/network.hpp"
#include "util/error.hpp"

namespace rsb {

const ProtocolOutcome& run_prepared(RunContext& ctx, const Experiment& spec,
                                    std::uint64_t seed,
                                    const PortAssignment* ports) {
  const int n = spec.config.num_parties();
  const int sources = spec.config.num_sources();
  ctx.store.reset();
  ctx.knowledge.assign(static_cast<std::size_t>(n), ctx.store.bottom());
  ctx.coins.clear();
  for (int source = 0; source < sources; ++source) {
    ctx.coins.emplace_back(
        derive_seed(seed, static_cast<std::uint64_t>(source)));
  }
  ctx.source_bits.resize(static_cast<std::size_t>(sources));
  spec.faults.draw(n, seed, ctx.crash_round);
  const bool faulty = !ctx.crash_round.empty();
  // Reset the outcome field by field — a fresh ProtocolOutcome would
  // deallocate the context's vectors every run.
  ProtocolOutcome& outcome = ctx.outcome;
  outcome.terminated = false;
  outcome.rounds = 0;
  outcome.outputs.assign(static_cast<std::size_t>(n), 0);
  outcome.decision_round.assign(static_cast<std::size_t>(n), -1);
  outcome.crash_round.clear();
  int undecided = n;
  ctx.consumed = 0;

  const AnonymousProtocol& protocol = *spec.protocol;
  const std::vector<int>& source_of = spec.config.source_of_party();
  std::vector<bool>& bits = ctx.bits;
  bits.resize(static_cast<std::size_t>(n));
  for (int round = 1; round <= spec.max_rounds && undecided > 0; ++round) {
    if (faulty) {
      for (int party = 0; party < n; ++party) {
        if (ctx.crash_round[static_cast<std::size_t>(party)] == round &&
            outcome.decision_round[static_cast<std::size_t>(party)] < 0) {
          --undecided;
        }
      }
      if (undecided == 0) break;
    }
    const auto apply_verdicts = [&] {
      for (int party = 0; party < n; ++party) {
        const std::size_t p = static_cast<std::size_t>(party);
        if (outcome.decision_round[p] >= 0) continue;
        if (ctx.verdicts[p].has_value()) {
          outcome.outputs[p] = *ctx.verdicts[p];
          outcome.decision_round[p] = round;
          --undecided;
          outcome.rounds = round;
        }
      }
    };
    auto pre = AnonymousProtocol::RoundVerdicts::kUnsupported;
    if (!faulty) {
      // The round-t verdicts of some protocols are a function of the
      // time-(t−1) multiset alone, which pre-round is simply the sorted
      // knowledge vector (fault-free whole-round contract). Ask first:
      // when every party decides before the round executes, the round
      // operator's output — and this round's coin draws — are
      // unobservable, so the run finishes without paying for either
      // (per-run coins make the unconsumed draws invisible to every other
      // run). The sorted vector doubles as the blackboard round
      // operator's shared multiset.
      ctx.sorted_prev.assign(ctx.knowledge.begin(), ctx.knowledge.end());
      std::sort(ctx.sorted_prev.begin(), ctx.sorted_prev.end());
      pre = protocol.decide_round_from_prev(ctx.store, ctx.knowledge,
                                            ctx.sorted_prev, ctx.verdicts);
      if (pre == AnonymousProtocol::RoundVerdicts::kSome) {
        apply_verdicts();
        if (undecided == 0) break;
      }
    }
    // One draw per source per executed round — exactly the SourceBank's
    // lazy extension — then fan the source bits out over the parties.
    ++ctx.consumed;
    for (int source = 0; source < sources; ++source) {
      ctx.source_bits[static_cast<std::size_t>(source)] =
          ctx.coins[static_cast<std::size_t>(source)].next_bit() ? 1 : 0;
    }
    for (int party = 0; party < n; ++party) {
      bits[static_cast<std::size_t>(party)] =
          ctx.source_bits[static_cast<std::size_t>(
              source_of[static_cast<std::size_t>(party)])] != 0;
    }
    // A fault-free run's crash column is empty; a faulty run lets the
    // blackboard operator sort its survivors itself.
    if (spec.model == Model::kBlackboard) {
      blackboard_round_inplace(
          ctx.store, ctx.knowledge, bits, ctx.crash_round, round,
          ctx.round_scratch,
          faulty ? std::span<const KnowledgeId>() : ctx.sorted_prev);
    } else {
      message_round_inplace(ctx.store, ctx.knowledge, bits, *ports,
                            spec.variant, ctx.crash_round, round,
                            ctx.round_scratch);
    }
    if (faulty) {
      for (int party = 0; party < n; ++party) {
        const std::size_t p = static_cast<std::size_t>(party);
        const int crash = ctx.crash_round[p];
        if (outcome.decision_round[p] >= 0 ||
            (crash >= 0 && round >= crash)) {
          continue;
        }
        const auto verdict = protocol.decide(ctx.store, ctx.knowledge[p]);
        if (verdict.has_value()) {
          outcome.outputs[p] = *verdict;
          outcome.decision_round[p] = round;
          --undecided;
          outcome.rounds = round;
        }
      }
    } else if (pre == AnonymousProtocol::RoundVerdicts::kUnsupported) {
      // A fault-free run's vector is the complete output of one round
      // operator — the decide_all contract — so the protocol can share
      // per-round work across parties (decide is pure, so computing a
      // verdict for an already-decided party is harmless). kNone/kSome:
      // the hook already produced this round's complete verdict set, so
      // there is nothing to decide post-round.
      protocol.decide_all(ctx.store, ctx.knowledge, ctx.decide_scratch,
                          ctx.verdicts);
      apply_verdicts();
    }
  }
  outcome.terminated = undecided == 0;
  if (faulty) outcome.crash_round = ctx.crash_round;
  ctx.store_high_water = std::max(ctx.store_high_water, ctx.store.size());
  return outcome;
}

ProtocolOutcome run_agent_prepared(RunContext& ctx, const Experiment& spec,
                                   std::uint64_t seed,
                                   const PortAssignment* ports) {
  std::optional<PortAssignment> run_ports;
  if (ports != nullptr) run_ports = *ports;
  spec.faults.draw(spec.config.num_parties(), seed, ctx.crash_round);
  sim::Network net(spec.model, spec.config, seed, std::move(run_ports),
                   spec.factory, spec.scheduler, ctx.crash_round, &ctx.arena,
                   spec.topology.get());
  const sim::Network::Outcome net_outcome = net.run(spec.max_rounds);
  ProtocolOutcome outcome;
  outcome.terminated = net_outcome.all_decided;
  outcome.rounds = net_outcome.rounds;
  outcome.outputs = net_outcome.outputs;
  outcome.decision_round = net_outcome.decision_round;
  if (!ctx.crash_round.empty()) outcome.crash_round = ctx.crash_round;
  return outcome;
}

PortProvider::PortProvider(Model model, PortPolicy policy,
                           const std::optional<PortAssignment>& fixed,
                           const SourceConfiguration& config,
                           std::uint64_t port_seed)
    : policy_(policy), rng_(port_seed) {
  if (model != Model::kMessagePassing) return;
  switch (policy) {
    case PortPolicy::kNone:
      break;
    case PortPolicy::kFixed:
      current_ = *fixed;
      break;
    case PortPolicy::kCyclic:
      current_ = PortAssignment::cyclic(config.num_parties());
      break;
    case PortPolicy::kAdversarial:
      current_ = PortAssignment::adversarial_for(config);
      break;
    case PortPolicy::kRandomPerRun:
      num_parties_ = config.num_parties();
      break;
  }
}

void PortProvider::maybe_checkpoint() {
  if (produced_ % kCheckpointStride != 0) return;
  const std::size_t k = static_cast<std::size_t>(produced_ / kCheckpointStride);
  // Checkpoints are only ever appended at the stream's frontier; a cursor
  // revisiting an already-checkpointed boundary changes nothing (the
  // stream is deterministic, so the state is identical anyway).
  if (k == checkpoints_.size()) checkpoints_.push_back(rng_);
}

void PortProvider::advance_one() {
  maybe_checkpoint();
  PortAssignment::discard_random(num_parties_, rng_);
  ++produced_;
}

const PortAssignment* PortProvider::next() {
  if (policy_ == PortPolicy::kNone) return nullptr;
  if (policy_ == PortPolicy::kRandomPerRun) {
    maybe_checkpoint();
    current_ = PortAssignment::random(num_parties_, rng_);
  }
  ++produced_;
  return &*current_;
}

void PortProvider::skip_to(std::uint64_t run_index) {
  if (policy_ != PortPolicy::kRandomPerRun) {
    produced_ = run_index;
    return;
  }
  if (run_index < produced_) {
    // Rewind (a stolen chunk behind the worker's cursor): restore the
    // nearest checkpoint at or below the target and replay forward —
    // draw-for-draw what the serial sweep consumed, so run_index still
    // receives its canonical wiring, at O(stride) cost. checkpoints_[0]
    // (the root state) always exists by the time produced_ > 0.
    const std::size_t k = std::min(
        static_cast<std::size_t>(run_index / kCheckpointStride),
        checkpoints_.size() - 1);
    rng_ = checkpoints_[k];
    produced_ = static_cast<std::uint64_t>(k) * kCheckpointStride;
  }
  while (produced_ < run_index) advance_one();
}

}  // namespace rsb
