// XState-focused tests (§3.4): Meta-XState directory layout, remote
// allocation, remote lookup/update for every map type, state migration,
// and scratchpad exhaustion behaviour.
#include <gtest/gtest.h>

#include "bpf/assembler.h"
#include "core/codeflow.h"

namespace rdx::core {
namespace {

struct Rig {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::vector<std::unique_ptr<Sandbox>> sandboxes;
  std::vector<CodeFlow*> flows;

  explicit Rig(int nodes = 1, SandboxConfig sandbox_config = {}) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 64u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id);
    for (int i = 0; i < nodes; ++i) {
      rdma::Node& node = fabric.AddNode("n" + std::to_string(i));
      sandboxes.push_back(
          std::make_unique<Sandbox>(events, node, sandbox_config));
      EXPECT_TRUE(sandboxes.back()->CtxInit().ok());
      auto reg = sandboxes.back()->CtxRegister();
      const StatusOr<CodeFlow*> flow = sim::RunToCompletion(
          events, cp->CreateCodeFlow(*sandboxes.back(), reg.value()));
      events.Run();
      EXPECT_TRUE(flow.ok());
      flows.push_back(flow.ok() ? flow.value() : nullptr);
    }
  }

  std::uint64_t Deploy(CodeFlow& flow, const bpf::MapSpec& spec) {
    const StatusOr<std::uint64_t> addr =
        sim::RunToCompletion(events, cp->DeployXState(flow, spec));
    EXPECT_TRUE(addr.ok()) << addr.status().ToString();
    events.Run();
    return addr.ok() ? addr.value() : 0;
  }

  Bytes Lookup(CodeFlow& flow, std::uint64_t addr, Bytes key) {
    const StatusOr<Bytes> value = sim::RunToCompletion(
        events, cp->XStateLookup(flow, addr, std::move(key)));
    EXPECT_TRUE(value.ok()) << value.status().ToString();
    events.Run();
    return value.ok() ? value.value() : Bytes();
  }

  void Update(CodeFlow& flow, std::uint64_t addr, Bytes key, Bytes value) {
    const Status s = sim::RunToCompletion(
        events, cp->XStateUpdate(flow, addr, std::move(key), std::move(value)));
    EXPECT_TRUE(s.ok()) << s.ToString();
    events.Run();
  }
};

Bytes Key32(std::uint32_t k) {
  Bytes key(4);
  StoreLE(key.data(), k);
  return key;
}

Bytes Value64(std::uint64_t v) {
  Bytes value(8);
  StoreLE(value.data(), v);
  return value;
}

TEST(XStateDeploy, LandsFormattedMapOnNode) {
  Rig rig;
  const bpf::MapSpec spec{"counters", bpf::MapType::kArray, 4, 8, 16};
  const std::uint64_t addr = rig.Deploy(*rig.flows[0], spec);
  ASSERT_NE(addr, 0u);
  // The node-side bytes are a valid, self-describing map.
  auto& mem = rig.sandboxes[0]->node().memory();
  bpf::MapView view(mem.SpanForCpu(addr, bpf::MapRequiredBytes(spec)));
  auto header = view.Header();
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, bpf::MapType::kArray);
  EXPECT_EQ(header->max_entries, 16u);
  // The address is inside the scratchpad.
  const ControlBlockView& cb = rig.flows[0]->remote_view();
  EXPECT_GE(addr, cb.scratch_addr);
  EXPECT_LT(addr, cb.scratch_addr + cb.scratch_size);
}

TEST(XStateDeploy, RegistersMetaDirectoryEntry) {
  Rig rig;
  const bpf::MapSpec spec{"m", bpf::MapType::kHash, 4, 8, 8};
  const std::uint64_t addr = rig.Deploy(*rig.flows[0], spec);
  const ControlBlockView& cb = rig.flows[0]->remote_view();
  const std::uint64_t entry =
      rig.sandboxes[0]->node().memory().ReadU64(cb.meta_xstate_addr).value();
  EXPECT_EQ(entry, addr);
}

TEST(XStateDeploy, SandboxDiscoversViaMetaWalk) {
  Rig rig;
  const bpf::MapSpec spec{"m", bpf::MapType::kArray, 4, 8, 4};
  const std::uint64_t addr = rig.Deploy(*rig.flows[0], spec);
  EXPECT_EQ(rig.sandboxes[0]->runtime().maps.count(addr), 0u);
  rig.sandboxes[0]->RefreshXState();
  ASSERT_EQ(rig.sandboxes[0]->runtime().maps.count(addr), 1u);
  EXPECT_EQ(rig.sandboxes[0]->runtime().maps.at(addr).value_size, 8u);
}

TEST(XStateDeploy, ManyInstancesOfVaryingSizes) {
  Rig rig;
  std::vector<std::uint64_t> addrs;
  for (std::uint32_t i = 1; i <= 20; ++i) {
    bpf::MapSpec spec{"m" + std::to_string(i), bpf::MapType::kArray, 4,
                      8 * i, 4 * i};
    addrs.push_back(rig.Deploy(*rig.flows[0], spec));
  }
  // All distinct and non-overlapping (ascending bump allocation).
  for (std::size_t i = 1; i < addrs.size(); ++i) {
    EXPECT_GT(addrs[i], addrs[i - 1]);
  }
  EXPECT_EQ(rig.flows[0]->xstates().size(), 20u);
}

TEST(XStateRemote, ArrayLookupAndUpdate) {
  Rig rig;
  const bpf::MapSpec spec{"a", bpf::MapType::kArray, 4, 8, 8};
  const std::uint64_t addr = rig.Deploy(*rig.flows[0], spec);
  rig.Update(*rig.flows[0], addr, Key32(3), Value64(12345));
  const Bytes value = rig.Lookup(*rig.flows[0], addr, Key32(3));
  ASSERT_EQ(value.size(), 8u);
  EXPECT_EQ(LoadLE<std::uint64_t>(value.data()), 12345u);
}

TEST(XStateRemote, HashInsertThenRemoteRead) {
  Rig rig;
  const bpf::MapSpec spec{"h", bpf::MapType::kHash, 4, 8, 16};
  const std::uint64_t addr = rig.Deploy(*rig.flows[0], spec);
  for (std::uint32_t k = 0; k < 10; ++k) {
    rig.Update(*rig.flows[0], addr, Key32(k * 7), Value64(k * 100));
  }
  for (std::uint32_t k = 0; k < 10; ++k) {
    const Bytes value = rig.Lookup(*rig.flows[0], addr, Key32(k * 7));
    EXPECT_EQ(LoadLE<std::uint64_t>(value.data()), k * 100);
  }
}

TEST(XStateRemote, LookupMissingKeyFails) {
  Rig rig;
  const bpf::MapSpec spec{"h", bpf::MapType::kHash, 4, 8, 8};
  const std::uint64_t addr = rig.Deploy(*rig.flows[0], spec);
  EXPECT_FALSE(
      sim::RunToCompletion(rig.events,
                           rig.cp->XStateLookup(*rig.flows[0], addr, Key32(9)))
          .ok());
}

TEST(XStateRemote, RemoteWriteVisibleToExtension) {
  Rig rig;
  CodeFlow& flow = *rig.flows[0];
  bpf::Program prog;
  prog.name = "reader";
  prog.maps.push_back({"cfg", bpf::MapType::kArray, 4, 8, 1});
  prog.insns = bpf::Assemble(R"(
    *(u32*)(r10 - 4) = 0
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r0 = *(u64*)(r0 + 0)
    exit
  out:
    r0 = 0
    exit
  )").value();
  ASSERT_TRUE(
      sim::RunToCompletion(rig.events, rig.cp->Inject(flow, prog, 0)).ok());
  rig.events.Run();

  const std::uint64_t addr = flow.xstates().at("cfg");
  rig.Update(flow, addr, Key32(0), Value64(4242));
  Bytes packet(4, 0);
  auto result = rig.sandboxes[0]->ExecuteHook(0, packet);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->r0, 4242u);
}

TEST(XStateMigrate, CopyPreservesContent) {
  Rig rig(2);
  const bpf::MapSpec spec{"h", bpf::MapType::kHash, 4, 8, 16};
  const std::uint64_t src = rig.Deploy(*rig.flows[0], spec);
  const std::uint64_t dst = rig.Deploy(*rig.flows[1], spec);
  for (std::uint32_t k = 0; k < 5; ++k) {
    rig.Update(*rig.flows[0], src, Key32(k), Value64(k + 1000));
  }
  const Status copied = sim::RunToCompletion(
      rig.events, rig.cp->CopyXState(*rig.flows[0], src, *rig.flows[1], dst));
  ASSERT_TRUE(copied.ok()) << copied.ToString();
  rig.events.Run();
  for (std::uint32_t k = 0; k < 5; ++k) {
    const Bytes value = rig.Lookup(*rig.flows[1], dst, Key32(k));
    EXPECT_EQ(LoadLE<std::uint64_t>(value.data()), k + 1000);
  }
}

TEST(XStateLimits, MetaDirectoryCapacityEnforced) {
  SandboxConfig config;
  config.meta_capacity = 3;
  Rig rig(1, config);
  const bpf::MapSpec spec{"m", bpf::MapType::kArray, 4, 8, 1};
  for (int i = 0; i < 3; ++i) {
    bpf::MapSpec named = spec;
    named.name = "m" + std::to_string(i);
    EXPECT_NE(rig.Deploy(*rig.flows[0], named), 0u);
  }
  bpf::MapSpec overflow = spec;
  overflow.name = "overflow";
  EXPECT_EQ(sim::RunToCompletion(rig.events,
                                 rig.cp->DeployXState(*rig.flows[0], overflow))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(XStateLimits, ScratchpadExhaustionSurfaces) {
  SandboxConfig config;
  config.scratch_bytes = 64 * 1024;
  Rig rig(1, config);
  const bpf::MapSpec big{"big", bpf::MapType::kArray, 4, 1024, 48};
  ASSERT_GT(bpf::MapRequiredBytes(big), 32u * 1024);
  ASSERT_LT(bpf::MapRequiredBytes(big), 64u * 1024);
  // First fits, second exhausts the 64 KiB scratchpad.
  bpf::MapSpec big1 = big;
  big1.name = "b1";
  EXPECT_NE(rig.Deploy(*rig.flows[0], big1), 0u);
  bpf::MapSpec big2 = big;
  big2.name = "b2";
  EXPECT_EQ(sim::RunToCompletion(rig.events,
                                 rig.cp->DeployXState(*rig.flows[0], big2))
                .status()
                .code(),
            StatusCode::kScratchExhausted);
}

TEST(XStateTelemetry, RemoteRingConsumeDrainsExtensionOutput) {
  Rig rig;
  CodeFlow& flow = *rig.flows[0];
  // Extension emits an 8-byte record (the first ctx word) per packet.
  bpf::Program prog;
  prog.name = "emitter";
  prog.maps.push_back({"events", bpf::MapType::kRingBuf, 0, 16, 32});
  prog.insns = bpf::Assemble(R"(
    r6 = *(u32*)(r1 + 0)
    *(u64*)(r10 - 8) = r6
    r1 = map 0
    r2 = r10
    r2 += -8
    r3 = 8
    r4 = 0
    call ringbuf_output
    r0 = 1
    exit
  )").value();
  const StatusOr<InjectTrace> injected =
      sim::RunToCompletion(rig.events, rig.cp->Inject(flow, prog, 0));
  ASSERT_TRUE(injected.ok()) << injected.status().ToString();
  rig.events.Run();

  for (std::uint32_t i = 0; i < 5; ++i) {
    Bytes packet(4);
    StoreLE(packet.data(), 100 + i);
    ASSERT_TRUE(rig.sandboxes[0]->ExecuteHook(0, packet).ok());
  }

  const std::uint64_t ring = flow.xstates().at("events");
  auto consume = [&] {
    StatusOr<std::vector<Bytes>> records = sim::RunToCompletion(
        rig.events, rig.cp->XStateRingConsume(flow, ring));
    rig.events.Run();
    return records;
  };
  const StatusOr<std::vector<Bytes>> records = consume();
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(LoadLE<std::uint64_t>((*records)[i].data()), 100 + i);
  }

  // Second consume finds nothing; producer can keep going after the
  // remote tail advance.
  const StatusOr<std::vector<Bytes>> none = consume();
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  Bytes packet(4);
  StoreLE<std::uint32_t>(packet.data(), 999);
  ASSERT_TRUE(rig.sandboxes[0]->ExecuteHook(0, packet).ok());
  const StatusOr<std::vector<Bytes>> one = consume();
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ(LoadLE<std::uint64_t>((*one)[0].data()), 999u);
}

TEST(XStateTelemetry, RingConsumeSurvivesManyRounds) {
  Rig rig;
  CodeFlow& flow = *rig.flows[0];
  const bpf::MapSpec spec{"rb", bpf::MapType::kRingBuf, 0, 8, 8};
  const std::uint64_t ring = rig.Deploy(flow, spec);
  rig.sandboxes[0]->RefreshXState();

  // Producer (local extension side) and consumer (remote control plane)
  // interleave across many wrap-arounds.
  auto& mem = rig.sandboxes[0]->node().memory();
  std::uint64_t produced = 0, consumed = 0;
  for (int round = 0; round < 50; ++round) {
    bpf::MapView view(
        mem.SpanForCpu(ring, bpf::MapRequiredBytes(spec)));
    for (int k = 0; k < 3; ++k) {
      Bytes rec(8);
      StoreLE(rec.data(), produced);
      if (view.RingOutput(rec).ok()) ++produced;
    }
    const StatusOr<std::vector<Bytes>> records = sim::RunToCompletion(
        rig.events, rig.cp->XStateRingConsume(flow, ring));
    ASSERT_TRUE(records.ok());
    for (const Bytes& rec : *records) {
      EXPECT_EQ(LoadLE<std::uint64_t>(rec.data()), consumed);
      ++consumed;
    }
    rig.events.Run();
  }
  EXPECT_EQ(produced, consumed);
  EXPECT_GT(produced, 100u);
}

TEST(XStateTelemetry, RemoteDumpMatchesLocalState) {
  Rig rig;
  CodeFlow& flow = *rig.flows[0];
  const bpf::MapSpec spec{"h", bpf::MapType::kHash, 4, 8, 32};
  const std::uint64_t addr = rig.Deploy(flow, spec);

  // Populate from the data-plane side (as an extension would).
  auto& mem = rig.sandboxes[0]->node().memory();
  bpf::MapView view(mem.SpanForCpu(addr, bpf::MapRequiredBytes(spec)));
  for (std::uint32_t k = 0; k < 12; ++k) {
    ASSERT_TRUE(view.Update(Key32(k * 3), Value64(k + 500)).ok());
  }

  const StatusOr<std::vector<std::pair<Bytes, Bytes>>> pairs =
      sim::RunToCompletion(rig.events, rig.cp->XStateDump(flow, addr));
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs->size(), 12u);
  for (const auto& [key, value] : *pairs) {
    const std::uint32_t k = LoadLE<std::uint32_t>(key.data());
    EXPECT_EQ(k % 3, 0u);
    EXPECT_EQ(LoadLE<std::uint64_t>(value.data()), k / 3 + 500);
  }
}

}  // namespace
}  // namespace rdx::core
