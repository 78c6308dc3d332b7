// Declarative orchestration tests: DSL parsing (good and bad input),
// plan validation against a cluster, and execution with every strategy.
#include <gtest/gtest.h>

#include "bpf/assembler.h"
#include "core/orchestrator.h"

namespace rdx::core {
namespace {

// ---- parser ----

TEST(OrchestrationParser, FullPlanParses) {
  auto plan = ParseOrchestration(R"(
    # comment line
    extension firewall kind=ebpf hook=0
    extension tagger kind=wasm hook=1   # trailing comment
    group frontend nodes=0,1,2
    group backend nodes=3
    deploy firewall to=frontend strategy=broadcast consistency=bbu
    deploy tagger to=backend strategy=rolling
    rollback firewall from=frontend
    detach tagger from=backend
  )");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->extensions.size(), 2u);
  EXPECT_EQ(plan->groups.size(), 2u);
  ASSERT_EQ(plan->actions.size(), 4u);

  EXPECT_FALSE(plan->extensions.at("firewall").is_wasm);
  EXPECT_TRUE(plan->extensions.at("tagger").is_wasm);
  EXPECT_EQ(plan->extensions.at("tagger").hook, 1);
  EXPECT_EQ(plan->groups.at("frontend").nodes,
            (std::vector<std::size_t>{0, 1, 2}));

  EXPECT_EQ(plan->actions[0].kind, ActionKind::kDeploy);
  EXPECT_EQ(plan->actions[0].strategy, RolloutStrategy::kBroadcast);
  EXPECT_EQ(plan->actions[0].consistency, ConsistencyLevel::kBbu);
  EXPECT_EQ(plan->actions[1].strategy, RolloutStrategy::kRolling);
  EXPECT_EQ(plan->actions[2].kind, ActionKind::kRollback);
  EXPECT_EQ(plan->actions[3].kind, ActionKind::kDetach);
}

TEST(OrchestrationParser, RejectsMalformedInput) {
  const char* bad[] = {
      "extension",                                 // missing name
      "extension f kind=lua",                      // unknown kind
      "extension f colour=red",                    // unknown attribute
      "extension f kind=ebpf\nextension f kind=ebpf",  // duplicate
      "group g",                                   // missing nodes
      "group g nodes=",                            // empty
      "group g nodes=a,b",                         // non-numeric
      "deploy f",                                  // missing group
      "deploy f to=g strategy=yolo",               // unknown strategy
      "deploy f to=g consistency=maybe",           // unknown consistency
      "launch f to=g",                             // unknown directive
  };
  for (const char* text : bad) {
    auto plan = ParseOrchestration(text);
    EXPECT_FALSE(plan.ok()) << text;
  }
}

TEST(OrchestrationParser, ErrorsCarryLineNumbers) {
  auto plan = ParseOrchestration("extension f kind=ebpf\n\nbogus line\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("line 3"), std::string::npos)
      << plan.status().ToString();
}

TEST(OrchestrationParser, DuplicateDeclarationsCarryLineNumbers) {
  auto dup_ext = ParseOrchestration(
      "extension f kind=ebpf\ngroup g nodes=0\nextension f kind=ebpf\n");
  ASSERT_FALSE(dup_ext.ok());
  EXPECT_NE(dup_ext.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(dup_ext.status().message().find("duplicate extension 'f'"),
            std::string::npos)
      << dup_ext.status().ToString();

  auto dup_group = ParseOrchestration(
      "group g nodes=0\ngroup g nodes=1\n");
  ASSERT_FALSE(dup_group.ok());
  EXPECT_NE(dup_group.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(dup_group.status().message().find("duplicate group 'g'"),
            std::string::npos)
      << dup_group.status().ToString();

  auto empty_nodes = ParseOrchestration("\ngroup g nodes=\n");
  ASSERT_FALSE(empty_nodes.ok());
  EXPECT_NE(empty_nodes.status().message().find("line 2"), std::string::npos)
      << empty_nodes.status().ToString();

  auto extra_attr = ParseOrchestration("group g nodes=0 color=red\n");
  ASSERT_FALSE(extra_attr.ok());
  EXPECT_NE(extra_attr.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(extra_attr.status().message().find("color=red"),
            std::string::npos)
      << extra_attr.status().ToString();
}

TEST(OrchestrationParser, RetryAndFailurePolicy) {
  auto plan = ParseOrchestration(R"(
    extension firewall kind=ebpf hook=0
    group all nodes=0,1
    deploy firewall to=all strategy=rolling max_retries=3 on_failure=rollback
    deploy firewall to=all strategy=parallel on_failure=skip
    deploy firewall to=all
  )");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->actions.size(), 3u);
  EXPECT_EQ(plan->actions[0].max_retries, 3);
  EXPECT_EQ(plan->actions[0].on_failure, OnFailure::kRollback);
  EXPECT_EQ(plan->actions[1].on_failure, OnFailure::kSkip);
  EXPECT_EQ(plan->actions[2].max_retries, 0);
  EXPECT_EQ(plan->actions[2].on_failure, OnFailure::kAbort);

  EXPECT_FALSE(ParseOrchestration(
                   "extension f kind=ebpf\ngroup g nodes=0\n"
                   "deploy f to=g max_retries=lots\n")
                   .ok());
  EXPECT_FALSE(ParseOrchestration(
                   "extension f kind=ebpf\ngroup g nodes=0\n"
                   "deploy f to=g on_failure=panic\n")
                   .ok());
  // Policy attributes are deploy-only.
  EXPECT_FALSE(ParseOrchestration(
                   "extension f kind=ebpf\ngroup g nodes=0\n"
                   "detach f from=g on_failure=skip\n")
                   .ok());
}

// ---- validation + execution ----

struct OrchestraRig {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<Orchestrator> orchestrator;
  std::vector<std::unique_ptr<Sandbox>> sandboxes;
  std::vector<CodeFlow*> flows;

  explicit OrchestraRig(int nodes) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id);
    orchestrator = std::make_unique<Orchestrator>(*cp);
    for (int i = 0; i < nodes; ++i) {
      rdma::Node& node = fabric.AddNode("n" + std::to_string(i));
      sandboxes.push_back(std::make_unique<Sandbox>(
          events, node, SandboxConfig{}));
      EXPECT_TRUE(sandboxes.back()->CtxInit().ok());
      auto reg = sandboxes.back()->CtxRegister();
      const StatusOr<CodeFlow*> flow = sim::RunToCompletion(
          events, cp->CreateCodeFlow(*sandboxes.back(), reg.value()));
      events.Run();
      flows.push_back(flow.ok() ? flow.value() : nullptr);
      orchestrator->RegisterNode(flows.back());
    }
    bpf::Program firewall;
    firewall.name = "firewall";
    firewall.insns = bpf::Assemble("r0 = 1\nexit\n").value();
    orchestrator->RegisterProgram("firewall", firewall);
    orchestrator->RegisterFilter("tagger", wasm::GenerateFilter(60, 1));
  }

  OrchestrationReport Run(std::string_view text,
                          UpdateBarrier* barrier = nullptr) {
    auto plan = ParseOrchestration(text);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    const StatusOr<OrchestrationReport> report = sim::RunToCompletion(
        events, orchestrator->Execute(plan.value(), barrier));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    events.Run();
    return report.ok() ? report.value() : OrchestrationReport{};
  }
};

TEST(OrchestrationValidation, CatchesUnknownReferences) {
  OrchestraRig rig(2);
  auto unknown_ext = ParseOrchestration(
      "group g nodes=0\ndeploy ghost to=g\n");
  ASSERT_TRUE(unknown_ext.ok());
  EXPECT_FALSE(rig.orchestrator->ValidatePlan(unknown_ext.value()).ok());

  auto unknown_group = ParseOrchestration(
      "extension firewall kind=ebpf\ndeploy firewall to=ghosts\n");
  ASSERT_TRUE(unknown_group.ok());
  EXPECT_FALSE(rig.orchestrator->ValidatePlan(unknown_group.value()).ok());

  auto bad_node = ParseOrchestration(
      "extension firewall kind=ebpf\ngroup g nodes=9\ndeploy firewall "
      "to=g\n");
  ASSERT_TRUE(bad_node.ok());
  EXPECT_FALSE(rig.orchestrator->ValidatePlan(bad_node.value()).ok());

  auto bad_hook = ParseOrchestration(
      "extension firewall kind=ebpf hook=99\ngroup g nodes=0\ndeploy "
      "firewall to=g\n");
  ASSERT_TRUE(bad_hook.ok());
  EXPECT_FALSE(rig.orchestrator->ValidatePlan(bad_hook.value()).ok());
}

TEST(OrchestrationValidation, UnregisteredArtifactCaught) {
  OrchestraRig rig(1);
  auto plan = ParseOrchestration(
      "extension mystery kind=ebpf\ngroup g nodes=0\ndeploy mystery to=g\n");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(rig.orchestrator->ValidatePlan(plan.value()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(OrchestrationExec, BroadcastDeploysEverywhere) {
  OrchestraRig rig(4);
  OrchestrationReport report = rig.Run(R"(
    extension firewall kind=ebpf hook=0
    group all nodes=0,1,2,3
    deploy firewall to=all strategy=broadcast
  )");
  EXPECT_EQ(report.actions_executed, 1u);
  Bytes packet(4, 0);
  for (auto& sandbox : rig.sandboxes) {
    EXPECT_EQ(sandbox->ExecuteHook(0, packet)->r0, 1u);
  }
}

TEST(OrchestrationExec, RollingAndParallelDeploy) {
  OrchestraRig rig(4);
  OrchestrationReport report = rig.Run(R"(
    extension firewall kind=ebpf hook=0
    extension tagger kind=wasm hook=1
    group left nodes=0,1
    group right nodes=2,3
    deploy firewall to=left strategy=rolling
    deploy tagger to=right strategy=parallel
  )");
  EXPECT_EQ(report.actions_executed, 2u);
  ASSERT_EQ(report.log.size(), 2u);
  EXPECT_NE(report.log[0].find("rolling"), std::string::npos);
  EXPECT_NE(report.log[1].find("parallel"), std::string::npos);
  EXPECT_EQ(rig.sandboxes[0]->VisibleVersion(0), 1u);
  EXPECT_EQ(rig.sandboxes[1]->VisibleVersion(0), 1u);
  EXPECT_EQ(rig.sandboxes[2]->VisibleVersion(1), 1u);
  EXPECT_EQ(rig.sandboxes[3]->VisibleVersion(1), 1u);
  // Groups don't leak into each other.
  EXPECT_EQ(rig.sandboxes[2]->VisibleVersion(0), 0u);
  EXPECT_EQ(rig.sandboxes[0]->VisibleVersion(1), 0u);
}

TEST(OrchestrationExec, DeployUpdateRollbackDetachLifecycle) {
  OrchestraRig rig(2);
  // Two successive deploys (v1, v2), then roll back to v1, then detach.
  (void)rig.Run(R"(
    extension firewall kind=ebpf hook=0
    group all nodes=0,1
    deploy firewall to=all strategy=broadcast
    deploy firewall to=all strategy=broadcast
  )");
  EXPECT_EQ(rig.sandboxes[0]->VisibleVersion(0), 2u);

  (void)rig.Run(R"(
    extension firewall kind=ebpf hook=0
    group all nodes=0,1
    rollback firewall from=all
  )");
  EXPECT_EQ(rig.sandboxes[0]->CommittedVersion(0), 1u);

  (void)rig.Run(R"(
    extension firewall kind=ebpf hook=0
    group all nodes=0,1
    detach firewall from=all
  )");
  EXPECT_EQ(rig.sandboxes[0]->CommittedVersion(0), 0u);
  EXPECT_EQ(rig.sandboxes[1]->CommittedVersion(0), 0u);
}

TEST(OrchestrationExec, ReportTimesActions) {
  OrchestraRig rig(2);
  OrchestrationReport report = rig.Run(R"(
    extension firewall kind=ebpf hook=0
    group all nodes=0,1
    deploy firewall to=all strategy=broadcast
  )");
  EXPECT_GT(report.total, 0);
  ASSERT_EQ(report.log.size(), 1u);
  EXPECT_NE(report.log[0].find("us)"), std::string::npos);
}

}  // namespace
}  // namespace rdx::core
