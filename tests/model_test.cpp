// Tests for the communication models: port-assignment algebra (including
// the Lemma 4.3 adversarial construction and its automorphism), the
// knowledge rounds of Eqs. (1)/(2), and the modeling distinction between
// the literal and port-tagged readings of Eq. (2).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "model/models.hpp"
#include "model/port_assignment.hpp"
#include "randomness/realization.hpp"
#include "util/error.hpp"
#include "util/partitions.hpp"
#include "util/rng.hpp"

namespace rsb {
namespace {

// ---------------------------------------------------------- PortAssignment

TEST(PortAssignment, ValidatesRows) {
  // Port to self.
  EXPECT_THROW(PortAssignment({{0}, {0}}), ValidationError);
  // Duplicate target.
  EXPECT_THROW(PortAssignment({{1, 1, 2}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}),
               ValidationError);
  // Wrong row size.
  EXPECT_THROW(PortAssignment({{1}, {0}, {0}}), ValidationError);
  // Out of range.
  EXPECT_THROW(PortAssignment({{5}, {0}}), ValidationError);
}

TEST(PortAssignment, CyclicIsValidAndInvertible) {
  const PortAssignment pa = PortAssignment::cyclic(5);
  for (int i = 0; i < 5; ++i) {
    for (int p = 1; p <= 4; ++p) {
      EXPECT_EQ(pa.neighbor(i, p), (i + p) % 5);
      EXPECT_EQ(pa.port_to(i, (i + p) % 5), p);
    }
  }
  EXPECT_THROW(pa.neighbor(0, 0), InvalidArgument);
  EXPECT_THROW(pa.neighbor(0, 5), InvalidArgument);
  EXPECT_THROW(pa.port_to(0, 0), InvalidArgument);
}

TEST(PortAssignment, RandomAssignmentsAreValid) {
  Xoshiro256StarStar rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const PortAssignment pa = PortAssignment::random(6, rng);
    for (int i = 0; i < 6; ++i) {
      std::set<int> targets;
      for (int p = 1; p <= 5; ++p) targets.insert(pa.neighbor(i, p));
      EXPECT_EQ(targets.size(), 5u);
      EXPECT_EQ(targets.count(i), 0u);
    }
  }
}

TEST(PortAssignment, EnumerationCountsForSmallN) {
  EXPECT_EQ(PortAssignment::enumerate_all(2).size(), 1u);
  EXPECT_EQ(PortAssignment::enumerate_all(3).size(), 8u);      // (2!)^3
  EXPECT_EQ(PortAssignment::enumerate_all(4).size(), 1296u);   // (3!)^4
  EXPECT_THROW(PortAssignment::enumerate_all(5), InvalidArgument);
}

TEST(PortAssignment, AdversarialIsValidForAllDivisors) {
  for (int n = 2; n <= 12; ++n) {
    for (int g = 1; g <= n; ++g) {
      if (n % g != 0) continue;
      const PortAssignment pa = PortAssignment::adversarial(n, g);
      for (int i = 0; i < n; ++i) {
        std::set<int> targets;
        for (int p = 1; p <= n - 1; ++p) targets.insert(pa.neighbor(i, p));
        EXPECT_EQ(targets.size(), static_cast<std::size_t>(n - 1))
            << "n=" << n << " g=" << g << " i=" << i;
      }
    }
  }
  EXPECT_THROW(PortAssignment::adversarial(6, 4), InvalidArgument);
}

TEST(PortAssignment, AdversarialAdmitsBlockShiftAutomorphism) {
  // f(m·g + r) = m·g + (r+1 mod g) preserves ports — the heart of the
  // Lemma 4.3 impossibility argument.
  for (const auto& [n, g] : std::vector<std::pair<int, int>>{
           {4, 2}, {6, 2}, {6, 3}, {8, 2}, {8, 4}, {9, 3}, {12, 4}}) {
    const PortAssignment pa = PortAssignment::adversarial(n, g);
    std::vector<int> f(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int m = i / g, r = i % g;
      f[static_cast<std::size_t>(i)] = m * g + (r + 1) % g;
    }
    EXPECT_TRUE(pa.is_automorphism(f)) << "n=" << n << " g=" << g;
  }
}

TEST(PortAssignment, AdversarialAutomorphismPreservesReciprocalPorts) {
  // The tagged model also needs: p's port to i equals f(p)'s port to f(i).
  const int n = 6, g = 2;
  const PortAssignment pa = PortAssignment::adversarial(n, g);
  std::vector<int> f(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) f[static_cast<std::size_t>(i)] = (i / g) * g + (i % g + 1) % g;
  for (int i = 0; i < n; ++i) {
    for (int p = 1; p <= n - 1; ++p) {
      const int u = pa.neighbor(i, p);
      EXPECT_EQ(pa.port_to(u, i),
                pa.port_to(f[static_cast<std::size_t>(u)],
                           f[static_cast<std::size_t>(i)]));
    }
  }
}

TEST(PortAssignment, IdentityIsNotAlwaysAnAutomorphismCheck) {
  const PortAssignment pa = PortAssignment::cyclic(4);
  std::vector<int> id = {0, 1, 2, 3};
  EXPECT_TRUE(pa.is_automorphism(id));
  std::vector<int> swap01 = {1, 0, 2, 3};
  EXPECT_FALSE(pa.is_automorphism(swap01));
  EXPECT_THROW(pa.is_automorphism({0, 0, 1, 2}), InvalidArgument);
  EXPECT_THROW(pa.is_automorphism({0, 1}), InvalidArgument);
}

TEST(PortAssignment, AdversarialForConfigValidation) {
  // Source-contiguous with loads divisible by gcd: fine.
  const auto c1 = SourceConfiguration::from_loads({2, 4});
  EXPECT_NO_THROW(PortAssignment::adversarial_for(c1));
  // Non-contiguous configuration: rejected.
  const SourceConfiguration scattered({0, 1, 0, 1});
  EXPECT_THROW(PortAssignment::adversarial_for(scattered), InvalidArgument);
}

// ----------------------------------------------------------- Model rounds

TEST(Models, InitialKnowledgeIsBottom) {
  KnowledgeStore store;
  const auto k0 = initial_knowledge(store, 3);
  EXPECT_EQ(k0.size(), 3u);
  for (KnowledgeId id : k0) EXPECT_EQ(id, store.bottom());
  EXPECT_THROW(initial_knowledge(store, 0), InvalidArgument);
}

TEST(Models, BlackboardRoundSeparatesByBit) {
  KnowledgeStore store;
  const auto k0 = initial_knowledge(store, 3);
  const auto k1 = blackboard_round(store, k0, {false, true, false});
  EXPECT_EQ(k1[0], k1[2]) << "same bit, same board → same knowledge";
  EXPECT_NE(k1[0], k1[1]);
  EXPECT_EQ(knowledge_partition(k1), (std::vector<int>{0, 1, 0}));
}

TEST(Models, BlackboardKnowledgeEqualsStringEquality) {
  // Property (Section 4.1): on the blackboard, K_i(t) = K_j(t) iff the
  // parties received identical randomness strings. Checked over all
  // realizations of small systems.
  KnowledgeStore store;
  for (int n = 2; n <= 4; ++n) {
    for (int t = 1; t <= (n <= 3 ? 3 : 2); ++t) {
      for_each_realization_facet(n, t, [&](const Realization& rho) {
        const auto knowledge = knowledge_at_blackboard(store, rho);
        EXPECT_EQ(knowledge_partition(knowledge), rho.equal_string_partition())
            << rho.to_string();
      });
    }
  }
}

TEST(Models, MessageRoundRespectsPorts) {
  KnowledgeStore store;
  const PortAssignment pa = PortAssignment::cyclic(3);
  const auto k0 = initial_knowledge(store, 3);
  const auto k1 = message_round(store, k0, {true, false, false}, pa);
  // Party 0 got bit 1 → distinct; parties 1 and 2 both got 0 but see party
  // 0's (still-⊥) knowledge at different ports only after round 2.
  EXPECT_NE(k1[0], k1[1]);
  EXPECT_EQ(k1[1], k1[2]);
}

TEST(Models, MessagePassingPartitionRefinesStringPartition) {
  // Knowledge can only distinguish parties whose strings differ or whose
  // views differ; parties with different strings always differ.
  KnowledgeStore store;
  const PortAssignment pa = PortAssignment::cyclic(4);
  for_each_realization_facet(4, 2, [&](const Realization& rho) {
    const auto partition =
        knowledge_partition(knowledge_at_message_passing(store, rho, pa));
    const auto strings = rho.equal_string_partition();
    // Same knowledge class ⇒ same string class.
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        if (partition[static_cast<std::size_t>(i)] ==
            partition[static_cast<std::size_t>(j)]) {
          EXPECT_EQ(strings[static_cast<std::size_t>(i)],
                    strings[static_cast<std::size_t>(j)]);
        }
      }
    }
  });
}

TEST(Models, RoundInputValidation) {
  KnowledgeStore store;
  const auto k0 = initial_knowledge(store, 3);
  EXPECT_THROW(blackboard_round(store, k0, {true}), InvalidArgument);
  const PortAssignment pa = PortAssignment::cyclic(4);
  EXPECT_THROW(message_round(store, k0, {true, false, true}, pa),
               InvalidArgument);
}

// ------------------------------------------------- in-place round kernels

std::vector<bool> random_bits(int n, Xoshiro256StarStar& rng) {
  std::vector<bool> bits;
  for (int i = 0; i < n; ++i) bits.push_back(rng.next_bit());
  return bits;
}

TEST(InPlaceKernels, BlackboardMatchesTheAllocatingRoundRoundForRound) {
  // Both branches of the in-place kernel — the caller-sorted multiset the
  // run kernel passes and the self-sorted one — intern exactly what the
  // allocating reference interns, in the same order, every round.
  for (int n = 1; n <= 8; ++n) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Xoshiro256StarStar rng(seed * 1000 + static_cast<std::uint64_t>(n));
      KnowledgeStore reference_store, self_store, caller_store;
      RoundScratch scratch;
      std::vector<KnowledgeId> reference = initial_knowledge(reference_store, n);
      std::vector<KnowledgeId> self_sorted = initial_knowledge(self_store, n);
      std::vector<KnowledgeId> caller_sorted =
          initial_knowledge(caller_store, n);
      for (int round = 1; round <= 8; ++round) {
        const std::vector<bool> bits = random_bits(n, rng);
        reference = blackboard_round(reference_store, reference, bits);
        blackboard_round_inplace(self_store, self_sorted, bits, {}, round,
                                 scratch);
        std::vector<KnowledgeId> sorted = caller_sorted;
        std::sort(sorted.begin(), sorted.end());
        blackboard_round_inplace(caller_store, caller_sorted, bits, {}, round,
                                 scratch, sorted);
        EXPECT_EQ(self_sorted, reference) << "n=" << n << " round=" << round;
        EXPECT_EQ(caller_sorted, reference) << "n=" << n << " round=" << round;
        EXPECT_EQ(self_store.size(), reference_store.size());
        EXPECT_EQ(caller_store.size(), reference_store.size());
      }
    }
  }
}

TEST(InPlaceKernels, MessagePassingMatchesTheAllocatingRoundRoundForRound) {
  for (const MessageVariant variant :
       {MessageVariant::kPortTagged, MessageVariant::kLiteral}) {
    for (int n = 1; n <= 8; ++n) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Xoshiro256StarStar rng(seed * 1000 + static_cast<std::uint64_t>(n));
        const PortAssignment ports = PortAssignment::random(n, rng);
        KnowledgeStore reference_store, store;
        RoundScratch scratch;
        std::vector<KnowledgeId> reference =
            initial_knowledge(reference_store, n);
        std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
        for (int round = 1; round <= 8; ++round) {
          const std::vector<bool> bits = random_bits(n, rng);
          reference =
              message_round(reference_store, reference, bits, ports, variant);
          message_round_inplace(store, knowledge, bits, ports, variant, {},
                                round, scratch);
          EXPECT_EQ(knowledge, reference)
              << to_string(variant) << " n=" << n << " round=" << round;
          EXPECT_EQ(store.size(), reference_store.size());
        }
      }
    }
  }
}

TEST(InPlaceKernels, BlackboardCrashFreezesTheDeadAndDropsThemFromTheBoard) {
  // Two fault-free rounds give every party a distinct value; then party 2
  // crashes at round 3 and party 3 only at round 6. In round 3 the dead
  // party keeps its value and posts nothing: each survivor's multiset
  // ranges over the other alive parties only. Both multiset branches
  // agree.
  KnowledgeStore store;
  RoundScratch scratch;
  std::vector<KnowledgeId> prev = initial_knowledge(store, 4);
  blackboard_round_inplace(store, prev, {true, false, true, false}, {}, 1,
                           scratch);
  blackboard_round_inplace(store, prev, {false, false, true, true}, {}, 2,
                           scratch);
  const std::set<KnowledgeId> distinct(prev.begin(), prev.end());
  ASSERT_EQ(distinct.size(), 4u);

  const std::vector<int> crash = {-1, -1, 3, 6};
  const std::vector<bool> bits = {true, true, false, true};
  std::vector<KnowledgeId> next = prev;
  blackboard_round_inplace(store, next, bits, crash, 3, scratch);
  EXPECT_EQ(next[2], prev[2]) << "crashed knowledge frozen";
  for (const std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(store.previous(next[i]), prev[i]);
    std::vector<KnowledgeId> expected;
    for (const std::size_t j : {0u, 1u, 3u}) {
      if (j != i) expected.push_back(prev[j]);
    }
    std::sort(expected.begin(), expected.end());
    const auto received = store.received(next[i]);
    EXPECT_EQ(std::vector<KnowledgeId>(received.begin(), received.end()),
              expected)
        << "party " << i;
  }

  std::vector<KnowledgeId> sorted = {prev[0], prev[1], prev[3]};
  std::sort(sorted.begin(), sorted.end());
  std::vector<KnowledgeId> via_caller = prev;
  const std::size_t size_before = store.size();
  blackboard_round_inplace(store, via_caller, bits, crash, 3, scratch, sorted);
  EXPECT_EQ(via_caller, next);
  EXPECT_EQ(store.size(), size_before) << "same round interns nothing new";
  // A caller multiset that still counts the dead party is rejected.
  std::vector<KnowledgeId> all = prev;
  std::sort(all.begin(), all.end());
  EXPECT_THROW(
      blackboard_round_inplace(store, via_caller, bits, crash, 3, scratch, all),
      InvalidArgument);
}

// ------------------------------------------ literal vs port-tagged Eq. (2)

// An aligned wiring for loads {2,3}: every v-party (source B) sees the two
// u-parties (source A) on ports 1,2 and the other v-parties on ports 3,4;
// every u-party sees the other u on port 1 and the v's on ports 2,3,4.
// Under the literal Eq. (2), the consistency partition can never refine
// below {u-class, v-class} — although gcd(2,3) = 1. The port-tagged model
// breaks the alignment. This is the modeling point documented in DESIGN.md.
PortAssignment aligned_ports_2_3() {
  // Parties 0,1 = source A; 2,3,4 = source B.
  return PortAssignment({
      {1, 2, 3, 4},  // u0: port1→u1, ports 2-4 → v's
      {0, 2, 3, 4},  // u1: port1→u0
      {0, 1, 3, 4},  // v2: ports1,2→u's, ports3,4→v's
      {0, 1, 2, 4},  // v3
      {0, 1, 2, 3},  // v4
  });
}

TEST(Models, LiteralEq2FreezesAlignedWiring) {
  const SourceConfiguration config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = aligned_ports_2_3();
  KnowledgeStore store;
  // For every realization the literal partition never refines below the
  // source partition {0,0,1,1,1}.
  for (int t = 1; t <= 3; ++t) {
    for_each_positive_realization(config, t, [&](const Realization& rho) {
      const auto partition = knowledge_partition(knowledge_at_message_passing(
          store, rho, pa, MessageVariant::kLiteral));
      const auto sizes = block_sizes(partition);
      for (int s : sizes) EXPECT_GE(s, 2) << rho.to_string();
    });
  }
}

TEST(Models, PortTaggedEq2SplitsAlignedWiring) {
  const SourceConfiguration config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = aligned_ports_2_3();
  KnowledgeStore store;
  // Under the tagged model some realization isolates a vertex by t = 3
  // (in fact the v-class splits as soon as the sources' strings differ).
  bool some_singleton = false;
  for_each_positive_realization(config, 3, [&](const Realization& rho) {
    const auto partition = knowledge_partition(knowledge_at_message_passing(
        store, rho, pa, MessageVariant::kPortTagged));
    const auto sizes = block_sizes(partition);
    for (int s : sizes) some_singleton = some_singleton || (s == 1);
  });
  EXPECT_TRUE(some_singleton)
      << "the tagged model must allow symmetry breaking when gcd = 1";
}

TEST(Models, ToStringNames) {
  EXPECT_EQ(to_string(Model::kBlackboard), "blackboard");
  EXPECT_EQ(to_string(Model::kMessagePassing), "message-passing");
  EXPECT_EQ(to_string(MessageVariant::kPortTagged), "port-tagged");
  EXPECT_EQ(to_string(MessageVariant::kLiteral), "literal");
}

}  // namespace
}  // namespace rsb
