// Tests for the executable protocols: knowledge-level leader election
// (blackboard unique-string and model-agnostic wait-for-singleton),
// m-leader election, color-refinement agents vs the knowledge recursion,
// CreateMatching (Algorithm 1 / Lemma 4.8), and the Theorem C.1 reduction.
#include <gtest/gtest.h>

#include <map>

#include "algo/agents.hpp"
#include "algo/protocol.hpp"
#include "algo/reduction.hpp"
#include "core/consistency.hpp"
#include "engine/engine.hpp"
#include "util/error.hpp"

namespace rsb {
namespace {

void expect_exactly_one_leader(const ProtocolOutcome& outcome) {
  ASSERT_TRUE(outcome.terminated);
  int leaders = 0;
  for (std::int64_t v : outcome.outputs) {
    EXPECT_TRUE(v == 0 || v == 1);
    leaders += v == 1 ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

/// One engine run of the named registry protocol on the blackboard.
ProtocolOutcome run_blackboard(const SourceConfiguration& config,
                               const char* protocol, std::uint64_t seed,
                               int max_rounds) {
  Engine engine;
  return engine.run(Experiment::blackboard(config)
                        .with_protocol(protocol)
                        .with_rounds(max_rounds),
                    seed);
}

/// One engine run of the named registry protocol under fixed ports.
ProtocolOutcome run_message_passing(const SourceConfiguration& config,
                                    const PortAssignment& ports,
                                    const char* protocol, std::uint64_t seed,
                                    int max_rounds) {
  Engine engine;
  return engine.run(Experiment::message_passing(config)
                        .with_ports(ports)
                        .with_protocol(protocol)
                        .with_rounds(max_rounds),
                    seed);
}

// ------------------------------------------ blackboard leader election

TEST(BlackboardLE, ElectsExactlyOneLeaderWithPrivateSources) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto config = SourceConfiguration::all_private(4);
    const auto outcome =
        run_blackboard(config, "blackboard-unique-string-LE", seed, 200);
    expect_exactly_one_leader(outcome);
  }
}

TEST(BlackboardLE, SolvesWithSingletonSourceAmongPairs) {
  const auto config = SourceConfiguration::from_loads({1, 2, 2});
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto outcome =
        run_blackboard(config, "blackboard-unique-string-LE", seed, 400);
    expect_exactly_one_leader(outcome);
  }
}

TEST(BlackboardLE, NeverTerminatesWithoutSingletonSource) {
  // Theorem 4.1 'only if': loads {2,2} admit no unique string, ever.
  const auto config = SourceConfiguration::from_loads({2, 2});
  const auto outcome = run_blackboard(config, "blackboard-unique-string-LE",
                                      /*seed=*/3, /*max_rounds=*/100);
  EXPECT_FALSE(outcome.terminated);
  for (int r : outcome.decision_round) EXPECT_EQ(r, -1);
}

TEST(BlackboardLE, AllDecideInTheSameRound) {
  const auto config = SourceConfiguration::all_private(3);
  const auto outcome =
      run_blackboard(config, "blackboard-unique-string-LE", 11, 200);
  ASSERT_TRUE(outcome.terminated);
  EXPECT_EQ(outcome.decision_round[0], outcome.decision_round[1]);
  EXPECT_EQ(outcome.decision_round[1], outcome.decision_round[2]);
}

// --------------------------------------------- wait-for-singleton (both)

TEST(WaitForSingletonLE, BlackboardAgreesWithUniqueString) {
  const auto config = SourceConfiguration::from_loads({1, 3});
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto outcome =
        run_blackboard(config, "wait-for-singleton-LE", seed, 400);
    expect_exactly_one_leader(outcome);
  }
}

TEST(WaitForSingletonLE, MessagePassingGcd1UnderCyclicPorts) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = PortAssignment::cyclic(5);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto outcome =
        run_message_passing(config, pa, "wait-for-singleton-LE", seed, 400);
    expect_exactly_one_leader(outcome);
  }
}

TEST(WaitForSingletonLE, MessagePassingGcd1UnderRandomPorts) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  Xoshiro256StarStar rng(77);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const PortAssignment pa = PortAssignment::random(5, rng);
    const auto outcome =
        run_message_passing(config, pa, "wait-for-singleton-LE", seed, 400);
    expect_exactly_one_leader(outcome);
  }
}

TEST(WaitForSingletonLE, AdversarialPortsGcd2NeverElect) {
  // Lemma 4.3 in action: loads {2,4}, adversarial ports, tagged model —
  // every class stays a multiple of 2 forever.
  const auto config = SourceConfiguration::from_loads({2, 4});
  const PortAssignment pa = PortAssignment::adversarial_for(config);
  const auto outcome = run_message_passing(
      config, pa, "wait-for-singleton-LE", /*seed=*/5, /*max_rounds=*/60);
  EXPECT_FALSE(outcome.terminated);
}

TEST(WaitForSingletonLE, SoloPartyElectsItself) {
  const auto config = SourceConfiguration::all_private(1);
  const auto outcome = run_blackboard(config, "wait-for-singleton-LE", 1, 10);
  ASSERT_TRUE(outcome.terminated);
  EXPECT_EQ(outcome.outputs, (std::vector<std::int64_t>{1}));
}

// ----------------------------------------------------- m-leader election

TEST(MLeaderElection, TwoLeadersFromPairedSources) {
  // loads {2,4}: 2-LE solvable on the blackboard (class of size 2).
  const auto config = SourceConfiguration::from_loads({2, 4});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto outcome =
        run_blackboard(config, "wait-for-class-split-LE(2)", seed, 400);
    ASSERT_TRUE(outcome.terminated) << "seed " << seed;
    int leaders = 0;
    for (std::int64_t v : outcome.outputs) leaders += v == 1 ? 1 : 0;
    EXPECT_EQ(leaders, 2);
  }
}

TEST(MLeaderElection, InfeasibleTargetNeverTerminates) {
  // loads {1,4}: no subset of classes ever sums to 2 on the blackboard
  // (classes can only be 1, 4, or 5 = 1+4 — the 4-class never splits).
  const auto config = SourceConfiguration::from_loads({1, 4});
  const auto outcome =
      run_blackboard(config, "wait-for-class-split-LE(2)", 9, 80);
  EXPECT_FALSE(outcome.terminated);
}

// ------------------------------------------------------ refinement agents

std::vector<int> agent_labels(const sim::Network& net, int n) {
  std::vector<int> labels;
  for (int party = 0; party < n; ++party) {
    labels.push_back(
        dynamic_cast<const sim::RefinementAgent&>(net.agent(party)).label());
  }
  return labels;
}

TEST(RefinementAgent, BlackboardLabelsMatchKnowledgePartition) {
  const auto config = SourceConfiguration::from_loads({2, 1, 2});
  const int n = 5;
  std::vector<sim::RefinementAgent*> agents(static_cast<std::size_t>(n));
  sim::Network net(Model::kBlackboard, config, 21, std::nullopt,
                   [&agents](int party) {
                     auto a = std::make_unique<sim::RefinementAgent>();
                     agents[static_cast<std::size_t>(party)] = a.get();
                     return a;
                   });
  KnowledgeStore store;
  for (int step = 1; step <= 8; ++step) {
    net.step();  // round A: label exchange
    net.step();  // round B: rank agreement
    // Rebuild the realization from the bits the agents actually consumed.
    std::vector<BitString> strings;
    for (int party = 0; party < n; ++party) {
      BitString s;
      for (bool b : agents[static_cast<std::size_t>(party)]->bit_history()) {
        s.push_back(b);
      }
      strings.push_back(std::move(s));
    }
    const Realization rho(strings);
    const auto expected =
        knowledge_partition(knowledge_at_blackboard(store, rho));
    EXPECT_EQ(canonical_blocks(agent_labels(net, n)), expected)
        << "step " << step;
  }
}

TEST(RefinementAgent, MessagePassingLabelsMatchTaggedKnowledge) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const int n = 5;
  const PortAssignment pa = PortAssignment::cyclic(n);
  std::vector<sim::RefinementAgent*> agents(static_cast<std::size_t>(n));
  sim::Network net(Model::kMessagePassing, config, 22, pa,
                   [&agents](int party) {
                     auto a = std::make_unique<sim::RefinementAgent>();
                     agents[static_cast<std::size_t>(party)] = a.get();
                     return a;
                   });
  KnowledgeStore store;
  for (int step = 1; step <= 6; ++step) {
    net.step();  // signature round
    net.step();  // rank round
    std::vector<BitString> strings;
    for (int party = 0; party < n; ++party) {
      BitString s;
      for (bool b : agents[static_cast<std::size_t>(party)]->bit_history()) {
        s.push_back(b);
      }
      strings.push_back(std::move(s));
    }
    const Realization rho(strings);
    const auto expected = knowledge_partition(knowledge_at_message_passing(
        store, rho, pa, MessageVariant::kPortTagged));
    EXPECT_EQ(canonical_blocks(agent_labels(net, n)), expected)
        << "step " << step;
  }
}

TEST(RefinementLeaderElection, MessageLevelElection) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = PortAssignment::cyclic(5);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Network net(Model::kMessagePassing, config, seed, pa, [](int) {
      return std::make_unique<sim::RefinementLeaderElectionAgent>();
    });
    const auto outcome = net.run(400);
    ASSERT_TRUE(outcome.all_decided) << "seed " << seed;
    int leaders = 0;
    for (std::int64_t v : outcome.outputs) leaders += v == 1 ? 1 : 0;
    EXPECT_EQ(leaders, 1) << "seed " << seed;
  }
}

TEST(RefinementMLeaderElection, BlackboardTwoLeaders) {
  const auto config = SourceConfiguration::from_loads({2, 4});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Network net(Model::kBlackboard, config, seed, std::nullopt, [](int) {
      return std::make_unique<sim::RefinementMLeaderElectionAgent>(2);
    });
    const auto outcome = net.run(400);
    ASSERT_TRUE(outcome.all_decided);
    int leaders = 0;
    for (std::int64_t v : outcome.outputs) leaders += v == 1 ? 1 : 0;
    EXPECT_EQ(leaders, 2);
  }
}

// --------------------------------------------------- CreateMatching (E9)

sim::Network::Outcome run_matching(int n1, int n2, int bystanders,
                                   std::uint64_t seed) {
  const int n = n1 + n2 + bystanders;
  // Every participant needs its own randomness for the random picks.
  const auto config = SourceConfiguration::all_private(n);
  const PortAssignment pa = PortAssignment::cyclic(n);
  sim::Network net(Model::kMessagePassing, config, seed, pa,
                   [n1, n2](int party) {
                     sim::MatchingRole role = sim::MatchingRole::kBystander;
                     if (party < n1) {
                       role = sim::MatchingRole::kV1;
                     } else if (party < n1 + n2) {
                       role = sim::MatchingRole::kV2;
                     }
                     return std::make_unique<sim::CreateMatchingAgent>(role);
                   });
  return net.run(4000);
}

TEST(CreateMatching, Lemma48PerfectMatchingOfSmallerSide) {
  for (const auto& [n1, n2] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 3}, {2, 3}, {3, 4}, {2, 5}, {4, 4}}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto outcome = run_matching(n1, n2, /*bystanders=*/1, seed);
      ASSERT_TRUE(outcome.all_decided)
          << "n1=" << n1 << " n2=" << n2 << " seed=" << seed;
      int matched_v1 = 0, matched_v2 = 0, unmatched_v2 = 0;
      for (int party = 0; party < n1 + n2 + 1; ++party) {
        const auto v = outcome.outputs[static_cast<std::size_t>(party)];
        if (party < n1) {
          EXPECT_EQ(v, sim::CreateMatchingAgent::kMatched)
              << "every V1 member must be matched";
          ++matched_v1;
        } else if (party < n1 + n2) {
          (v == sim::CreateMatchingAgent::kMatched ? matched_v2
                                                   : unmatched_v2)++;
        } else {
          EXPECT_EQ(v, sim::CreateMatchingAgent::kBystander);
        }
      }
      EXPECT_EQ(matched_v1, n1);
      EXPECT_EQ(matched_v2, n1) << "matching pairs V1 with V2 one-to-one";
      EXPECT_EQ(unmatched_v2, n2 - n1);
    }
  }
}

TEST(CreateMatching, RejectsLargerV1) {
  EXPECT_THROW(run_matching(3, 2, 0, 1), ValidationError);
}

TEST(CreateMatching, EmptyV1TerminatesImmediately) {
  const auto outcome = run_matching(0, 3, 1, 2);
  EXPECT_TRUE(outcome.all_decided);
  for (int party = 0; party < 3; ++party) {
    EXPECT_EQ(outcome.outputs[static_cast<std::size_t>(party)],
              sim::CreateMatchingAgent::kUnmatched);
  }
}

// ------------------------------------------------ Theorem C.1 reduction

TEST(Reduction, ConsensusViaLeaderOnBlackboard) {
  const auto config = SourceConfiguration::from_loads({1, 2});
  const auto task = NameIndependentTask::consensus_min();
  const std::vector<std::int64_t> inputs = {4, 9, 9};
  const auto outcome =
      solve_name_independent_task(Model::kBlackboard, config, std::nullopt,
                                  task, inputs, /*seed=*/7, /*max_rounds=*/200);
  ASSERT_TRUE(outcome.solved);
  EXPECT_TRUE(task.validate(inputs, outcome.outputs));
  EXPECT_GE(outcome.leader, 0);
}

TEST(Reduction, RankViaLeaderOnMessagePassing) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = PortAssignment::cyclic(5);
  const auto task = NameIndependentTask::rank();
  const std::vector<std::int64_t> inputs = {10, 10, 20, 20, 5};
  const auto outcome = solve_name_independent_task(
      Model::kMessagePassing, config, pa, task, inputs, 8, 400);
  ASSERT_TRUE(outcome.solved);
  EXPECT_TRUE(task.validate(inputs, outcome.outputs));
}

TEST(Reduction, FailsWhereLeaderElectionFails) {
  // Identical inputs + shared randomness: symmetry cannot break, so the
  // reduction (correctly) cannot elect and reports failure.
  const auto config = SourceConfiguration::all_shared(3);
  const auto task = NameIndependentTask::parity();
  const std::vector<std::int64_t> inputs = {1, 1, 1};
  const auto outcome =
      solve_name_independent_task(Model::kBlackboard, config, std::nullopt,
                                  task, inputs, 9, 60);
  EXPECT_FALSE(outcome.solved);
}

TEST(Reduction, InputAsymmetryCanBreakSymmetryAlone) {
  // Shared randomness but distinct inputs: the inputs themselves isolate a
  // vertex, so the reduction succeeds even where pure LE would fail.
  const auto config = SourceConfiguration::all_shared(3);
  const auto task = NameIndependentTask::consensus_max();
  const std::vector<std::int64_t> inputs = {1, 2, 2};
  const auto outcome =
      solve_name_independent_task(Model::kBlackboard, config, std::nullopt,
                                  task, inputs, 10, 60);
  ASSERT_TRUE(outcome.solved);
  EXPECT_EQ(outcome.outputs, (std::vector<std::int64_t>{2, 2, 2}));
}

TEST(Reduction, ValidatesArguments) {
  const auto config = SourceConfiguration::all_private(2);
  const auto task = NameIndependentTask::parity();
  EXPECT_THROW(solve_name_independent_task(Model::kBlackboard, config,
                                           std::nullopt, task, {1}, 1, 10),
               InvalidArgument);
  EXPECT_THROW(solve_name_independent_task(Model::kMessagePassing, config,
                                           std::nullopt, task, {1, 2}, 1, 10),
               InvalidArgument);
}

// -------------------------------------------------------- runner contract

TEST(Runner, ValidatesPortsPresence) {
  // Ports must be given exactly for message passing: Engine::run rejects
  // a wireless message-passing spec and a wired blackboard spec alike.
  const auto config = SourceConfiguration::all_private(2);
  Engine engine;
  EXPECT_THROW(engine.run(Experiment::message_passing(config, PortPolicy::kNone)
                              .with_protocol("wait-for-singleton-LE")
                              .with_rounds(10),
                          1),
               InvalidArgument);
  EXPECT_THROW(engine.run(Experiment::blackboard(config)
                              .with_ports(PortAssignment::cyclic(2))
                              .with_protocol("wait-for-singleton-LE")
                              .with_rounds(10),
                          1),
               InvalidArgument);
}

}  // namespace
}  // namespace rsb
