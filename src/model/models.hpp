// The two communication models, as knowledge-transition operators.
//
// A model turns the knowledge vector (K_1(t−1), ..., K_n(t−1)) plus the
// round-t random bits into (K_1(t), ..., K_n(t)), implementing Eq. (1)
// (blackboard) and Eq. (2) (message passing). Full information is implicit:
// each party contributes its entire knowledge every round. Each model has
// two operators: an allocating reference round (blackboard_round,
// message_round) and the allocation-free in-place kernel the engine runs
// (blackboard_round_inplace, message_round_inplace), which also carries
// crash-stop faults.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "knowledge/knowledge.hpp"
#include "model/port_assignment.hpp"
#include "randomness/realization.hpp"

namespace rsb {

enum class Model {
  kBlackboard,
  kMessagePassing,
};

/// How much a full-information message reveals about its channel.
///
/// kPortTagged (default): a message carries the sender's outgoing port
/// number, so both endpoints learn the reciprocal port pair of their shared
/// edge. This is the reading of Eq. (2) under which the paper's theorems
/// hold: a receiver can then simulate selective-send protocols such as
/// CreateMatching, which the proof of Lemma 4.7 relies on.
///
/// kLiteral: the bare Eq. (2) tuple — received knowledge only. Under this
/// reading there are port wirings (see DESIGN.md and the model tests) where
/// the consistency partition of a gcd=1 configuration is frozen forever and
/// the 'if' direction of Theorem 4.2 fails; the variant is kept to
/// demonstrate exactly that.
enum class MessageVariant {
  kPortTagged,
  kLiteral,
};

std::string to_string(Model model);
std::string to_string(MessageVariant variant);

/// K_i(0) for input-free tasks: every party starts at ⊥.
std::vector<KnowledgeId> initial_knowledge(KnowledgeStore& store,
                                           int num_parties);

/// K_i(0) = input(v_i) for input-output tasks (Appendix C).
std::vector<KnowledgeId> initial_knowledge_with_inputs(
    KnowledgeStore& store, const std::vector<std::int64_t>& inputs);

/// One blackboard round (Eq. 1). bits[i] is X_i(t).
std::vector<KnowledgeId> blackboard_round(KnowledgeStore& store,
                                          const std::vector<KnowledgeId>& prev,
                                          const std::vector<bool>& bits);

/// One message-passing round (Eq. 2) under the given port assignment.
std::vector<KnowledgeId> message_round(
    KnowledgeStore& store, const std::vector<KnowledgeId>& prev,
    const std::vector<bool>& bits, const PortAssignment& ports,
    MessageVariant variant = MessageVariant::kPortTagged);

/// Reusable scratch buffers for the in-place round operators below. Batch
/// drivers keep one per worker (RunContext) so steady-state sweeps run the
/// knowledge recursion without a single allocation per round.
struct RoundScratch {
  std::vector<KnowledgeId> sorted_prev;
  std::vector<KnowledgeId> received;
  std::vector<int> tags;
  std::vector<KnowledgeId> next;
  // Per-round (prev, bit) → id memo of the blackboard operator.
  std::vector<KnowledgeId> memo_prev;
  std::vector<unsigned char> memo_bit;
  std::vector<KnowledgeId> memo_id;
};

/// One blackboard round in place, under crash-stop faults:
/// knowledge := Eq. (1)(knowledge, bits) over the parties still
/// participating. Party j participates in round `round` iff crash_round is
/// empty (fault-free), crash_round[j] < 0, or round < crash_round[j]
/// (sim/fault.hpp semantics — a party halts at the start of its crash
/// round). A crashed party posts nothing and its knowledge stays frozen at
/// its last pre-crash value; every alive party splices the same survivor
/// multiset. Ids and store insertion order are byte-identical to
/// blackboard_round on a fault-free round (survivors intern in party
/// order, the dead intern nothing).
///
/// The survivor multiset is canonicalized once per round, not once per
/// party: `sorted_alive` is the caller's sorted copy of the alive previous
/// values (the run kernel already sorts them for its pre-round decision
/// hook), or empty to let the operator sort them into scratch itself. A
/// party's step value is then a function of its own (prev, bit) alone, so
/// a per-round memo skips repeat probes — they would have been no-op
/// lookups, so ids and insertion order are unchanged.
void blackboard_round_inplace(KnowledgeStore& store,
                              std::vector<KnowledgeId>& knowledge,
                              const std::vector<bool>& bits,
                              std::span<const int> crash_round, int round,
                              RoundScratch& scratch,
                              std::span<const KnowledgeId> sorted_alive = {});

/// One message-passing round in place, under crash-stop faults (same
/// participation rule as blackboard_round_inplace; empty crash_round =
/// fault-free, byte-identical ids to message_round under the same
/// variant). A crashed party's knowledge is frozen at its last pre-crash
/// value; an alive receiver's Eq. (2) tuple entry for a port whose sender
/// has halted is the distinguished "silence" value
/// (KnowledgeStore::silence) — the synchronous-model fact that a dead
/// channel is detectable — with reciprocal tag 0 in the port-tagged
/// variant (a silent channel transmits no tag; real ports are >= 1).
void message_round_inplace(KnowledgeStore& store,
                           std::vector<KnowledgeId>& knowledge,
                           const std::vector<bool>& bits,
                           const PortAssignment& ports, MessageVariant variant,
                           std::span<const int> crash_round, int round,
                           RoundScratch& scratch);

/// The knowledge vector at the realization's time in the blackboard model,
/// computed by running Eq. (1) for t rounds on the realization's bits.
std::vector<KnowledgeId> knowledge_at_blackboard(
    KnowledgeStore& store, const Realization& realization);

/// Ditto for the message-passing model under the given ports.
std::vector<KnowledgeId> knowledge_at_message_passing(
    KnowledgeStore& store, const Realization& realization,
    const PortAssignment& ports,
    MessageVariant variant = MessageVariant::kPortTagged);

/// The consistency partition of the parties at the realization's time: the
/// canonical block-index form of the relation i ~_t j ⇔ K_i(t) = K_j(t)
/// (Eq. 4). For the blackboard model this equals the equal-string partition
/// of the realization (proved in Section 4.1 and checked in tests).
std::vector<int> knowledge_partition(const std::vector<KnowledgeId>& knowledge);

}  // namespace rsb
