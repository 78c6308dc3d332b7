// Scratchpad reuse: the control plane puts each reclaimed image block on
// its CodeFlow's free list and reuses it once one READ of the hook's
// HealthBlock shows that the sandbox's CPU neither runs the image nor can
// revert to it. Every test steps the event queue one event at a time and
// checks Inspector::CheckFreeList after each step.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <optional>
#include <string>

#include "bpf/assembler.h"
#include "bpf/jit.h"
#include "bpf/proggen.h"
#include "core/codeflow.h"
#include "core/inspector.h"

namespace rdx::core {
namespace {

bpf::Program ReturnN(std::uint64_t n) {
  bpf::Program prog;
  prog.name = "ret" + std::to_string(n);
  prog.insns = bpf::Assemble("r0 = " + std::to_string(n) + "\nexit\n").value();
  return prog;
}

// `copies` times "r0 = n", then exit: ReturnN padded to a size class.
bpf::Program Padded(std::uint64_t n, int copies) {
  std::string text;
  for (int i = 0; i < copies; ++i) text += "r0 = " + std::to_string(n) + "\n";
  bpf::Program prog;
  prog.name = "padded" + std::to_string(n);
  prog.insns = bpf::Assemble(text + "exit\n").value();
  return prog;
}

// A map-free program of `insns` instructions; `seed` makes it distinct.
bpf::Program Sized(std::size_t insns, std::uint64_t seed) {
  return bpf::GenerateProgram(
      {.target_insns = insns, .seed = seed, .use_maps = false});
}

std::uint64_t ImageLen(const bpf::Program& prog) {
  return bpf::JitCompiler().Compile(prog).value().Serialize().size();
}

std::uint64_t BlockBytes(const bpf::Program& prog) {
  return std::bit_ceil(ImageRegionBytes(ImageLen(prog)));
}

// How many copies make Padded's block the size of a trapping program's,
// so that a good image's block is a candidate for every deploy of those.
int TrapClassCopies() {
  const std::uint64_t block = BlockBytes(bpf::GenerateRogueProgram({}));
  int copies = 1;
  while (BlockBytes(Padded(7, copies)) < block) ++copies;
  return copies;
}

struct ReuseRig {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<Sandbox> sandbox;
  CodeFlow* flow = nullptr;

  explicit ReuseRig(SandboxConfig sandbox_config = {},
                    ControlPlaneConfig cp_config = {}) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 64u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id, cp_config);
    rdma::Node& node = fabric.AddNode("target");
    sandbox = std::make_unique<Sandbox>(events, node, sandbox_config);
    EXPECT_TRUE(sandbox->CtxInit().ok());
    auto reg = sandbox->CtxRegister();
    EXPECT_TRUE(reg.ok());
    const StatusOr<CodeFlow*> created =
        Run(cp->CreateCodeFlow(*sandbox, reg.value()));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (created.ok()) flow = created.value();
  }

  // One event, then the free-list invariant.
  bool Step() {
    const bool stepped = events.Step();
    if (flow != nullptr) {
      const Status invariant = Inspector::CheckFreeList(*flow);
      EXPECT_TRUE(invariant.ok()) << invariant.ToString();
    }
    return stepped;
  }

  // Steps until `task` finishes; with `drain`, then until the queue is
  // empty too.
  template <class T>
  T Run(sim::Task<T> task, bool drain = true) {
    std::optional<T> result;
    sim::Start(std::move(task),
               [&result](T value) { result.emplace(std::move(value)); });
    while (!result.has_value()) {
      if (!Step()) {
        ADD_FAILURE() << "event queue drained before the task finished";
        std::abort();
      }
    }
    while (drain && Step()) {
    }
    return std::move(*result);
  }

  Status Inject(const bpf::Program& prog, int hook = 0, bool drain = true) {
    return Run(cp->Inject(*flow, prog, hook), drain).status();
  }

  std::uint64_t Word(std::uint64_t addr) {
    return sandbox->node().memory().ReadU64(addr).value();
  }
  std::uint64_t Brk() { return Word(sandbox->view().cb_addr + kCbScratchBrk); }
  std::uint64_t Slot(int hook) {
    return Word(sandbox->view().hook_table_addr + 8ull * hook);
  }
  // The image bytes behind `desc` (its refcount word moves on reclaim).
  Bytes Region(std::uint64_t desc) {
    Bytes bytes(Word(desc + kDescImageLen));
    const std::uint64_t image = Word(desc + kDescImageAddr);
    EXPECT_TRUE(sandbox->node().memory().Read(image, bytes).ok());
    return bytes;
  }
  std::uint64_t Execute(int hook) {
    Bytes packet(8, 0);
    const auto result = sandbox->ExecuteHook(hook, packet);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->r0 : 0;
  }
};

// (a) Ten times the scratchpad in images to one hook: superseded regions
// come back, so the bump cursor settles at the live set.
TEST(ScratchReuse, TenTimesCapacityToOneHookNeverExhausts) {
  SandboxConfig config;
  config.scratch_bytes = 64u << 10;
  ReuseRig rig(config);
  const std::uint64_t base = rig.sandbox->view().scratch_addr;
  const std::uint64_t block = BlockBytes(Sized(200, 1));
  std::uint64_t deployed = 0;
  std::uint64_t brk_after_warmup = 0;
  int n = 0;
  for (; deployed < 10 * config.scratch_bytes; ++n) {
    const bpf::Program prog = Sized(200, 1 + n);
    ASSERT_EQ(BlockBytes(prog), block);
    const Status s = rig.Inject(prog);
    ASSERT_TRUE(s.ok()) << "deploy " << n << ": " << s.ToString();
    deployed += ImageRegionBytes(ImageLen(prog));
    if (n == 20) brk_after_warmup = rig.Brk();
    ASSERT_LE(rig.Brk() - base, 12 * block) << "deploy " << n;
  }
  // The current image, 8 rollback targets and the block that was reused
  // last: the cursor stopped once reuse began.
  EXPECT_EQ(rig.Brk(), brk_after_warmup);
  EXPECT_EQ(rig.sandbox->stats().images_reclaimed,
            static_cast<std::uint64_t>(n - 1 - 8));
  EXPECT_EQ(rig.sandbox->CommittedVersion(0), static_cast<std::uint64_t>(n));
}

// (b) A region whose desc the CPU still runs (no cc_event flush, and the
// eviction that would reveal the new slot has not happened yet) is not
// reused: the deploy falls back to FETCH_ADD. Once the CPU has moved on,
// the block comes back.
TEST(ScratchReuse, RegionTheCpuStillRunsIsNotReused) {
  SandboxConfig config;
  config.cpki = 1e-6;  // eviction-driven discovery takes its 10 ms cap
  ControlPlaneConfig cp_config;
  cp_config.use_cc_event = false;
  cp_config.hook_history_depth = 1;
  ReuseRig rig(config, cp_config);

  ASSERT_TRUE(rig.Inject(ReturnN(1), 0, /*drain=*/false).ok());
  rig.sandbox->RefreshHookNow(0);
  const std::uint64_t v1 = rig.Slot(0);
  ASSERT_EQ(rig.sandbox->ReadLocalHealth(0).visible_desc, v1);
  const Bytes v1_region = rig.Region(v1);
  ASSERT_TRUE(rig.Inject(ReturnN(2), 0, false).ok());
  ASSERT_TRUE(rig.Inject(ReturnN(3), 0, false).ok());  // reclaims v1

  // v4 needs v1's size class; the HealthBlock says the CPU runs v1.
  const std::uint64_t block = BlockBytes(ReturnN(1));
  const std::uint64_t brk = rig.Brk();
  ASSERT_TRUE(rig.Inject(ReturnN(4), 0, false).ok());
  const std::uint64_t v4 = rig.Slot(0);
  EXPECT_EQ(rig.Brk(), brk + block);
  EXPECT_GE(v4, brk);
  EXPECT_EQ(rig.Region(v1), v1_region);
  EXPECT_EQ(rig.sandbox->VisibleVersion(0), 1u);

  // The CPU catches up; the next deploy reuses v1's block.
  rig.sandbox->RefreshHookNow(0);
  ASSERT_TRUE(rig.Inject(ReturnN(5), 0, false).ok());
  EXPECT_EQ(rig.Brk(), brk + block);
  EXPECT_EQ(rig.Slot(0), v1);
  rig.sandbox->RefreshHookNow(0);
  EXPECT_EQ(rig.Execute(0), 5u);
}

// (c) The region last_good_desc names is never rewritten, however many
// deploys later; the local fail-safe reverts to it and runs it.
TEST(ScratchReuse, LastGoodRegionSurvivesAndFailSafeRunsIt) {
  const bpf::Program good_prog = Padded(7, TrapClassCopies());
  ASSERT_EQ(BlockBytes(good_prog), BlockBytes(bpf::GenerateRogueProgram({})));
  ReuseRig rig;
  ASSERT_TRUE(rig.Inject(good_prog).ok());
  const std::uint64_t good = rig.Slot(0);
  EXPECT_EQ(rig.Execute(0), 7u);
  ASSERT_EQ(rig.sandbox->ReadLocalHealth(0).last_good_desc, good);
  const Bytes good_region = rig.Region(good);

  // Trapping images, never executed: last_good_desc stays on the first.
  std::uint64_t brk = 0;
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(
        rig.Inject(bpf::GenerateRogueProgram({.seed = std::uint64_t(i)})).ok());
    if (i == 12) brk = rig.Brk();
  }
  EXPECT_EQ(rig.Brk(), brk);  // the others were reused
  EXPECT_EQ(rig.Region(good), good_region);
  EXPECT_EQ(rig.sandbox->stats().images_reclaimed, 30u - 8u);

  // Four traps in a row: the fail-safe reverts to the last good image.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(rig.sandbox->ExecuteHook(0, Bytes(8, 0)).ok());
    ASSERT_TRUE(Inspector::CheckFreeList(*rig.flow).ok());
  }
  EXPECT_EQ(rig.sandbox->stats().failsafe_detaches, 1u);
  EXPECT_EQ(rig.Slot(0), good);
  EXPECT_EQ(rig.Execute(0), 7u);

  // Deploys go on around it, and the invariant keeps holding.
  for (int i = 31; i <= 40; ++i) {
    ASSERT_TRUE(
        rig.Inject(bpf::GenerateRogueProgram({.seed = std::uint64_t(i)})).ok());
  }
  EXPECT_EQ(rig.Region(good), good_region);
}

// A quarantine back to a last-good image older than the history makes its
// block live again: it leaves the free list, and deploys stay clear of it.
TEST(ScratchReuse, QuarantineToOldLastGoodTakesItOffTheFreeList) {
  const int copies = TrapClassCopies();
  ReuseRig rig;
  ASSERT_TRUE(rig.Inject(Padded(7, copies)).ok());
  const std::uint64_t good = rig.Slot(0);
  EXPECT_EQ(rig.Execute(0), 7u);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(
        rig.Inject(bpf::GenerateRogueProgram({.seed = std::uint64_t(i)})).ok());
  }
  ASSERT_EQ(rig.sandbox->stats().images_reclaimed, 2u);  // good's block too
  ASSERT_TRUE(rig.Run(rig.cp->QuarantineHook(*rig.flow, 0, rig.Slot(0), good))
                  .ok());
  EXPECT_EQ(rig.Slot(0), good);
  EXPECT_EQ(rig.Execute(0), 7u);
  // Twenty deploys of the same size class later (the trapping program is
  // blacklisted now), `good` still holds its image.
  for (std::uint64_t n = 100; n < 120; ++n) {
    ASSERT_TRUE(rig.Inject(Padded(n, copies)).ok());
  }
  EXPECT_EQ(rig.Word(good + kDescImageAddr) + ImageRegionBytes(rig.Word(
                good + kDescImageLen)) - kImageDescBytes,
            good);
  EXPECT_EQ(rig.Word(good + kDescVersion), 1u);
}

// (d) A reboot resets the bump cursor: after Crash, Reboot and
// ReconnectCodeFlow, no free block aliases a fresh allocation, including
// a reclaim whose refcount write was still in flight across the reboot.
TEST(ScratchReuse, RebootLeavesNoFreeBlockAliasingNewAllocations) {
  ControlPlaneConfig cp_config;
  cp_config.hook_history_depth = 1;
  ReuseRig rig({}, cp_config);
  // Hook 1's images are of another size class, so its last reclaimed
  // block is still on the free list at the crash.
  for (std::uint64_t n = 1; n <= 4; ++n) {
    ASSERT_TRUE(rig.Inject(Padded(n, 32), 1).ok());
  }
  for (std::uint64_t n = 1; n <= 5; ++n) ASSERT_TRUE(rig.Inject(ReturnN(n)).ok());
  // The deploy returns with its reclaim write still in flight.
  const std::uint64_t reclaimed = rig.sandbox->stats().images_reclaimed;
  ASSERT_TRUE(rig.Inject(ReturnN(6), 0, /*drain=*/false).ok());
  EXPECT_EQ(rig.sandbox->stats().images_reclaimed, reclaimed);

  rig.sandbox->Crash();
  ASSERT_TRUE(rig.sandbox->Reboot().ok());
  ASSERT_TRUE(rig.Run(rig.cp->ReconnectCodeFlow(*rig.flow)).ok());
  EXPECT_EQ(rig.sandbox->stats().images_reclaimed, reclaimed + 1);
  EXPECT_EQ(rig.flow->HookVersion(0), 0u);

  const std::uint64_t base = rig.sandbox->view().scratch_addr;
  ASSERT_EQ(rig.Brk(), base);
  for (std::uint64_t n = 11; n <= 16; ++n) {
    ASSERT_TRUE(rig.Inject(ReturnN(n)).ok());
    EXPECT_EQ(rig.Execute(0), n);
  }
  const std::uint64_t block = BlockBytes(ReturnN(16));
  // Current image, one rollback target, one block in its reclaim round trip.
  EXPECT_LE(rig.Brk() - base, 3 * block);
}

// (e) The vanilla path compares against the exact image capacity, not the
// block: an image that fits the block but not the region goes out of
// place; one that fits the region is overwritten in place. After a
// rollback, the in-place write lands in the rollback target's region.
TEST(ScratchReuse, VanillaPathSplitsOnExactCapacity) {
  ControlPlaneConfig cp_config;
  cp_config.use_tx = false;
  ReuseRig rig({}, cp_config);

  // 32 instructions: a 320-byte region capacity in a 512-byte block.
  const bpf::Program small = Padded(1, 32);
  const std::uint64_t small_cap = ImageRegionBytes(ImageLen(small)) -
                                  kImageDescBytes;
  const std::uint64_t small_block = BlockBytes(small);
  // The smallest program whose image overflows `small`'s region but whose
  // region still fits `small`'s block.
  std::optional<bpf::Program> larger;
  for (int copies = 33; copies < 400 && !larger; ++copies) {
    bpf::Program prog = Padded(1, copies);
    if (ImageLen(prog) > small_cap &&
        ImageRegionBytes(ImageLen(prog)) <= small_block) {
      larger = std::move(prog);
    }
  }
  ASSERT_TRUE(larger.has_value());

  ASSERT_TRUE(rig.Inject(small).ok());
  const std::uint64_t first = rig.Slot(0);
  std::uint64_t brk = rig.Brk();
  ASSERT_TRUE(rig.Inject(*larger).ok());
  const std::uint64_t second = rig.Slot(0);
  EXPECT_NE(second, first);
  EXPECT_GT(rig.Brk(), brk);  // out of place: a fresh block

  // A program no larger than `larger`'s region overwrites it in place.
  brk = rig.Brk();
  ASSERT_TRUE(rig.Inject(small).ok());
  EXPECT_EQ(rig.Slot(0), second);
  EXPECT_EQ(rig.Brk(), brk);
  EXPECT_EQ(rig.sandbox->CommittedVersion(0), 3u);

  // Roll back to `small`; an in-place update then rewrites `small`'s
  // region and leaves the rolled-from one alone.
  ASSERT_TRUE(rig.Run(rig.cp->Rollback(*rig.flow, 0)).ok());
  ASSERT_EQ(rig.Slot(0), first);
  const Bytes rolled_from = rig.Region(second);
  ASSERT_TRUE(rig.Inject(ReturnN(2)).ok());
  EXPECT_EQ(rig.Slot(0), first);
  EXPECT_EQ(rig.Brk(), brk);
  EXPECT_EQ(rig.Region(second), rolled_from);
  EXPECT_EQ(rig.Word(first + kDescImageAddr) + small_cap, first);
  EXPECT_EQ(rig.sandbox->CommittedVersion(0), 2u);
  rig.sandbox->RefreshHookNow(0);
  EXPECT_EQ(rig.Execute(0), 2u);
}

}  // namespace
}  // namespace rdx::core
