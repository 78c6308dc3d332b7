#include "core/sandbox.h"

#include <iterator>

#include "common/log.h"
#include "core/gatekeeper.h"

namespace rdx::core {

namespace {
std::uint64_t HashCString(const char* s, std::uint64_t h = kFnv1a64Offset) {
  return Fnv1a64({reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)},
                 h);
}
}  // namespace

std::uint64_t SymbolHash(const char* prefix, std::uint64_t id) {
  std::uint8_t le[8];
  StoreLE(le, id);
  return Fnv1a64(le, HashCString(prefix));
}

std::uint64_t SymbolHashName(const char* prefix, const char* name) {
  return HashCString(name, HashCString(prefix));
}

void StoreDesc(std::uint8_t* desc, std::uint64_t image_addr, ByteSpan image,
               std::uint64_t version, std::uint64_t signing_key) {
  StoreLE(desc + kDescImageAddr, image_addr);
  StoreLE(desc + kDescImageLen, static_cast<std::uint64_t>(image.size()));
  StoreLE(desc + kDescVersion, version);
  StoreLE(desc + kDescRefcount, 1ull);
  if (signing_key != 0) {
    StoreLE(desc + kDescSignature, SignImage(image, signing_key));
  }
}

std::uint64_t ImageRegionBytes(std::uint64_t image_len) {
  return ((image_len + 63) & ~63ull) + kImageDescBytes;
}

Bytes ComposeImageRegion(ByteSpan image, std::uint64_t image_addr,
                         std::uint64_t version, std::uint64_t signing_key) {
  Bytes region(ImageRegionBytes(image.size()), 0);
  std::copy(image.begin(), image.end(), region.begin());
  StoreDesc(region.data() + region.size() - kImageDescBytes, image_addr,
            image, version, signing_key);
  return region;
}

Sandbox::Sandbox(sim::EventQueue& events, rdma::Node& node,
                 SandboxConfig config)
    : events_(events),
      node_(node),
      config_(std::move(config)),
      mem_space_(node.memory()),
      rng_(config_.seed),
      cache_(config_.cache) {
  rt_.mem = &mem_space_;
  rt_.rng = &rng_;
  rt_.ktime_ns = [this] {
    return static_cast<std::uint64_t>(events_.Now());
  };
}

StatusOr<std::uint64_t> Sandbox::ReadWord(std::uint64_t addr) const {
  return node_.memory().ReadU64(addr);
}

Status Sandbox::WriteWord(std::uint64_t addr, std::uint64_t value) {
  return node_.memory().WriteU64(addr, value);
}

namespace {
// eBPF helpers available in every sandbox.
constexpr std::int32_t kExportedHelpers[] = {
    bpf::kHelperMapLookupElem, bpf::kHelperMapUpdateElem,
    bpf::kHelperMapDeleteElem, bpf::kHelperKtimeGetNs,
    bpf::kHelperTracePrintk,   bpf::kHelperGetPrandomU32,
    bpf::kHelperGetSmpProcessorId, bpf::kHelperRingbufOutput};
}  // namespace

std::vector<std::pair<std::uint64_t, std::uint64_t>> Sandbox::ExportedSymbols()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> symbols;
  for (std::int32_t id : kExportedHelpers) {
    symbols.emplace_back(SymbolHash("helper:", static_cast<std::uint64_t>(id)),
                         static_cast<std::uint64_t>(id));
  }
  // Wasm host functions, value = index in this sandbox's host table.
  for (std::size_t i = 0; i < config_.wasm_host_fns.size(); ++i) {
    symbols.emplace_back(
        SymbolHashName("host:", config_.wasm_host_fns[i].c_str()),
        static_cast<std::uint64_t>(i));
  }
  return symbols;
}

Bytes Sandbox::SymbolTable() const {
  const auto symbols = ExportedSymbols();
  Bytes out;
  AppendLE<std::uint32_t>(out, static_cast<std::uint32_t>(symbols.size()));
  for (const auto& [hash, value] : symbols) {
    AppendLE<std::uint64_t>(out, hash);
    AppendLE<std::uint64_t>(out, value);
  }
  return out;
}

Status Sandbox::CtxInit() {
  if (booted_) return FailedPrecondition("sandbox already booted");
  auto& mem = node_.memory();

  RDX_ASSIGN_OR_RETURN(view_.cb_addr, mem.Allocate(kControlBlockBytes, 64));
  RDX_ASSIGN_OR_RETURN(view_.hook_table_addr,
                       mem.Allocate(config_.hook_count * 8ull, 64));
  view_.hook_count = config_.hook_count;
  RDX_ASSIGN_OR_RETURN(view_.meta_xstate_addr,
                       mem.Allocate(config_.meta_capacity * 8ull, 64));
  view_.meta_capacity = config_.meta_capacity;

  // The table Boot writes: a u32 count, then a (hash, value) u64 pair per
  // exported helper and host function.
  view_.symtab_len =
      4 + 16 * (std::size(kExportedHelpers) + config_.wasm_host_fns.size());
  RDX_ASSIGN_OR_RETURN(view_.symtab_addr, mem.Allocate(view_.symtab_len, 64));

  RDX_ASSIGN_OR_RETURN(ctx_buf_addr_, mem.Allocate(kCtxBytes, 64));
  RDX_ASSIGN_OR_RETURN(stack_addr_, mem.Allocate(bpf::kStackSize, 64));

  // HealthBlock array sits before the scratchpad so it lands inside the
  // RDMA-registered span (control plane reads it one-sided) and is wiped
  // by Crash() together with everything else.
  RDX_ASSIGN_OR_RETURN(
      view_.health_addr,
      mem.Allocate(config_.hook_count * kHealthBlockBytes, 64));

  // TraceRing next, same reasoning: the collector harvests it one-sided,
  // and a crash takes the unharvested tail with it.
  if (config_.telemetry) {
    RDX_ASSIGN_OR_RETURN(
        view_.trace_addr,
        mem.Allocate(
            telemetry::TraceRingWriter::BytesFor(config_.trace_ring_slots),
            64));
  }

  RDX_ASSIGN_OR_RETURN(view_.scratch_addr,
                       mem.Allocate(config_.scratch_bytes, 4096));
  view_.scratch_size = config_.scratch_bytes;

  return Boot();
}

Status Sandbox::Boot() {
  RDX_RETURN_IF_ERROR(node_.memory().Write(view_.symtab_addr, SymbolTable()));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbMagic, kControlBlockMagic));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbEpoch, 0));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbLock, 0));
  RDX_RETURN_IF_ERROR(
      WriteWord(view_.cb_addr + kCbHookTableAddr, view_.hook_table_addr));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbHookCount,
                                view_.hook_count));
  RDX_RETURN_IF_ERROR(
      WriteWord(view_.cb_addr + kCbMetaXstateAddr, view_.meta_xstate_addr));
  RDX_RETURN_IF_ERROR(
      WriteWord(view_.cb_addr + kCbMetaCapacity, view_.meta_capacity));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbScratchAddr,
                                view_.scratch_addr));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbScratchSize,
                                view_.scratch_size));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbScratchBrk,
                                view_.scratch_addr));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbSymtabAddr,
                                view_.symtab_addr));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbSymtabLen,
                                view_.symtab_len));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbDoorbell, 0));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbHealthAddr,
                                view_.health_addr));
  RDX_RETURN_IF_ERROR(WriteWord(view_.cb_addr + kCbTraceAddr,
                                view_.trace_addr));
  // Fresh boot (or reboot) starts with clean health counters.
  Bytes health_zeros(view_.hook_count * kHealthBlockBytes, 0);
  RDX_RETURN_IF_ERROR(node_.memory().Write(view_.health_addr, health_zeros));
  // ... and an empty trace ring with a fresh producer cursor.
  if (view_.trace_addr != 0) {
    RDX_RETURN_IF_ERROR(telemetry::TraceRingWriter::Format(
        node_.memory(), view_.trace_addr, config_.trace_ring_slots));
    trace_.emplace(node_.memory(), view_.trace_addr,
                   config_.trace_ring_slots);
    pending_trace_emits_ = 0;
  }
  hooks_.assign(config_.hook_count, HookState{});
  booted_ = true;
  return OkStatus();
}

std::uint64_t Sandbox::HealthWordAddr(int hook, std::uint64_t field) const {
  return view_.health_addr +
         static_cast<std::uint64_t>(hook) * kHealthBlockBytes + field;
}

StatusOr<std::uint64_t> Sandbox::GetHealth(int hook,
                                           std::uint64_t field) const {
  return ReadWord(HealthWordAddr(hook, field));
}

void Sandbox::BumpHealth(int hook, std::uint64_t field, std::uint64_t delta) {
  const auto current = ReadWord(HealthWordAddr(hook, field));
  if (!current.ok()) return;
  (void)WriteWord(HealthWordAddr(hook, field), current.value() + delta);
}

void Sandbox::SetHealth(int hook, std::uint64_t field, std::uint64_t value) {
  (void)WriteWord(HealthWordAddr(hook, field), value);
}

HealthView Sandbox::ReadLocalHealth(int hook) const {
  HealthView hv;
  if (view_.health_addr == 0) return hv;
  auto word = [&](std::uint64_t field) {
    const auto w = GetHealth(hook, field);
    return w.ok() ? w.value() : 0ull;
  };
  hv.executions = word(kHbExecutions);
  hv.traps = word(kHbTraps);
  hv.fuel_exhaustions = word(kHbFuelExhaustions);
  hv.consecutive_failures = word(kHbConsecutiveFailures);
  hv.last_good_desc = word(kHbLastGoodDesc);
  hv.failsafe_detaches = word(kHbFailsafeDetaches);
  hv.visible_desc = word(kHbVisibleDesc);
  return hv;
}

void Sandbox::AccountReclaim(std::uint64_t bytes) {
  ++stats_.images_reclaimed;
  stats_.scratch_bytes_reclaimed += bytes;
}

void Sandbox::EmitTrace(telemetry::RingEventKind kind, int hook,
                        std::uint16_t code, std::uint64_t arg) {
  if (!trace_.has_value()) return;
  trace_->Emit(kind, static_cast<std::uint8_t>(hook), code, events_.Now(),
               arg);
  ++pending_trace_emits_;
}

void Sandbox::ExportMetrics(telemetry::MetricsRegistry& reg,
                            const std::string& prefix) const {
  reg.SetCounter(prefix + ".executions", stats_.executions);
  reg.SetCounter(prefix + ".empty_hook_executions",
                 stats_.empty_hook_executions);
  reg.SetCounter(prefix + ".torn_image_failures",
                 stats_.torn_image_failures);
  reg.SetCounter(prefix + ".signature_failures", stats_.signature_failures);
  reg.SetCounter(prefix + ".refreshes", stats_.refreshes);
  reg.SetCounter(prefix + ".traps", stats_.traps);
  reg.SetCounter(prefix + ".fuel_exhaustions", stats_.fuel_exhaustions);
  reg.SetCounter(prefix + ".failsafe_detaches", stats_.failsafe_detaches);
  if (trace_.has_value()) {
    reg.SetCounter(prefix + ".trace.emitted", trace_->emitted());
    reg.SetCounter(prefix + ".trace.dropped", trace_->dropped());
  }
  telemetry::CaptureCacheMetrics(reg, cache_, prefix + ".cache");
  // HealthBlock counters, per hook, read from the same words the control
  // plane harvests over RDMA.
  if (view_.health_addr != 0) {
    for (std::uint32_t h = 0; h < view_.hook_count; ++h) {
      const HealthView hv = ReadLocalHealth(static_cast<int>(h));
      if (hv.executions == 0 && hv.traps == 0 && hv.fuel_exhaustions == 0 &&
          hv.failsafe_detaches == 0) {
        continue;
      }
      const std::string hp = prefix + ".hook" + std::to_string(h);
      reg.SetCounter(hp + ".executions", hv.executions);
      reg.SetCounter(hp + ".traps", hv.traps);
      reg.SetCounter(hp + ".fuel_exhaustions", hv.fuel_exhaustions);
      reg.SetCounter(hp + ".consecutive_failures", hv.consecutive_failures);
      reg.SetCounter(hp + ".failsafe_detaches", hv.failsafe_detaches);
    }
  }
}

void Sandbox::RecordHookOutcome(int hook, const Status& outcome) {
  if (!config_.guardrails || view_.health_addr == 0) return;
  HookState& state = hooks_[hook];
  BumpHealth(hook, kHbExecutions, 1);
  if (outcome.ok()) {
    const auto consecutive = GetHealth(hook, kHbConsecutiveFailures);
    if (consecutive.ok() && consecutive.value() != 0) {
      SetHealth(hook, kHbConsecutiveFailures, 0);
    }
    const auto last_good = GetHealth(hook, kHbLastGoodDesc);
    if (last_good.ok() && last_good.value() != state.visible_desc_addr) {
      SetHealth(hook, kHbLastGoodDesc, state.visible_desc_addr);
    }
    return;
  }
  // Fuel overruns come back as kResourceExhausted from the engines; every
  // other runtime failure is a trap.
  if (outcome.code() == StatusCode::kResourceExhausted) {
    ++stats_.fuel_exhaustions;
    BumpHealth(hook, kHbFuelExhaustions, 1);
    EmitTrace(telemetry::RingEventKind::kHookFuelExhausted, hook,
              static_cast<std::uint16_t>(outcome.code()), 0);
  } else {
    ++stats_.traps;
    BumpHealth(hook, kHbTraps, 1);
    EmitTrace(telemetry::RingEventKind::kHookTrap, hook,
              static_cast<std::uint16_t>(outcome.code()), 0);
  }
  BumpHealth(hook, kHbConsecutiveFailures, 1);
  const auto consecutive = GetHealth(hook, kHbConsecutiveFailures);
  if (config_.max_consecutive_failures != 0 && consecutive.ok() &&
      consecutive.value() >= config_.max_consecutive_failures) {
    FailSafeDetach(hook);
  }
}

void Sandbox::FailSafeDetach(int hook) {
  // Revert the hook slot to the last image that ever completed here; if
  // the failing image *is* that image (or none ever succeeded), detach
  // entirely — an empty hook accepts by default, which is the safe mode.
  const auto last_good = GetHealth(hook, kHbLastGoodDesc);
  std::uint64_t target = last_good.ok() ? last_good.value() : 0;
  if (target == hooks_[hook].visible_desc_addr) target = 0;
  (void)WriteWord(view_.hook_table_addr + hook * 8ull, target);
  BumpHealth(hook, kHbFailsafeDetaches, 1);
  SetHealth(hook, kHbConsecutiveFailures, 0);
  ++stats_.failsafe_detaches;
  EmitTrace(telemetry::RingEventKind::kFailsafeDetach, hook, 0, target);
  // The local CPU sees its own write immediately (agent-equivalent path).
  RefreshHookNow(hook);
}

void Sandbox::Crash() {
  if (!booted_) return;
  // Power loss: all DRAM behind the sandbox is gone, along with whatever
  // the control plane had deployed into it.
  auto& mem = node_.memory();
  const std::uint64_t begin = view_.cb_addr;
  const std::uint64_t end = view_.scratch_addr + view_.scratch_size;
  Bytes zeros(end - begin, 0);
  (void)mem.Write(begin, zeros);
  hooks_.assign(config_.hook_count, HookState{});
  rt_.maps.clear();
  trace_.reset();
  pending_trace_emits_ = 0;
  booted_ = false;
}

Status Sandbox::Reboot() {
  if (booted_) return FailedPrecondition("sandbox is running");
  if (view_.cb_addr == 0) return FailedPrecondition("sandbox never booted");
  // The boot sequence is deterministic and the layout addresses are
  // fixed, so the node comes back at the same {cb_addr, rkey} with a
  // fresh scratch allocator and epoch 0.
  return Boot();
}

StatusOr<Sandbox::Registration> Sandbox::CtxRegister() {
  if (!booted_) return FailedPrecondition("CtxInit must run first");
  if (registered_) return FailedPrecondition("sandbox already registered");
  // One region spanning the control block through the scratchpad end
  // (CtxInit allocated them contiguously).
  const std::uint64_t begin = view_.cb_addr;
  const std::uint64_t end = view_.scratch_addr + view_.scratch_size;
  RDX_ASSIGN_OR_RETURN(
      const rdma::MemoryRegion mr,
      node_.memory().Register(begin, end - begin,
                              rdma::kAccessRemoteRead |
                                  rdma::kAccessRemoteWrite |
                                  rdma::kAccessRemoteAtomic |
                                  rdma::kAccessLocalWrite));
  registered_ = true;
  return Registration{view_.cb_addr, mr.rkey};
}

Status Sandbox::CtxTeardown(int hook) {
  if (hook < 0 || hook >= static_cast<int>(hooks_.size())) {
    return InvalidArgument("hook out of range");
  }
  HookState& state = hooks_[hook];
  if (state.visible_desc_addr == 0) {
    return FailedPrecondition("hook already detached");
  }
  if (state.refcount > 0) {
    --state.refcount;
    if (state.refcount > 0) return OkStatus();  // still referenced
  }
  RDX_RETURN_IF_ERROR(WriteWord(view_.hook_table_addr + hook * 8ull, 0));
  state = HookState{};
  SetHealth(hook, kHbVisibleDesc, 0);
  return OkStatus();
}

sim::Duration Sandbox::VisibilityDelay(bool coherent_flush) {
  if (coherent_flush) return cache_.FlushDelay();
  return cache_.SampleDiscoveryDelay(config_.cpki, rng_);
}

void Sandbox::RefreshHookNow(int hook) {
  ++stats_.refreshes;
  // The CPU re-reads the hook slot and the XState directory; failures
  // here indicate a corrupt deployment and are surfaced on execution.
  const auto slot = ReadWord(view_.hook_table_addr + hook * 8ull);
  if (!slot.ok()) return;
  HookState& state = hooks_[hook];
  if (state.visible_desc_addr != slot.value()) {
    state.visible_desc_addr = slot.value();
    // Published for the control plane, which reuses no image region this
    // CPU may still run (DESIGN.md "Scratchpad reuse").
    SetHealth(hook, kHbVisibleDesc, slot.value());
    state.image.reset();
    state.visible_version = 0;
    if (slot.value() != 0) {
      const auto version = ReadWord(slot.value() + kDescVersion);
      if (version.ok()) state.visible_version = version.value();
      state.refcount = 1;
    }
    EmitTrace(telemetry::RingEventKind::kHookRefresh, hook, 0,
              state.visible_version);
  } else if (slot.value() != 0) {
    // Same desc, possibly re-versioned in place (vanilla path).
    const auto version = ReadWord(slot.value() + kDescVersion);
    if (version.ok() && version.value() != state.visible_version) {
      state.visible_version = version.value();
      state.image.reset();
      EmitTrace(telemetry::RingEventKind::kHookRefresh, hook, 0,
                state.visible_version);
    }
  }
  RefreshXState();
}

void Sandbox::ScheduleHookRefresh(int hook, sim::Duration delay) {
  events_.ScheduleAfter(delay, [this, hook] { RefreshHookNow(hook); });
}

void Sandbox::RefreshHooks() {
  for (std::uint32_t i = 0; i < view_.hook_count; ++i) {
    ScheduleHookRefresh(static_cast<int>(i), 0);
  }
}

void Sandbox::RefreshXState() {
  // Walk the Meta-XState directory and (re)register every map with the
  // runtime so helper calls can resolve them by address.
  const StatusOr<ByteSpan> directory = node_.memory().ReadSpan(
      view_.meta_xstate_addr, view_.meta_capacity * 8);
  if (!directory.ok()) return;
  for (std::uint64_t i = 0; i < view_.meta_capacity; ++i) {
    const auto addr = LoadLE<std::uint64_t>(directory->data() + i * 8);
    if (addr == 0 || rt_.maps.count(addr) != 0) continue;
    // The XState header is self-describing (bpf::MapHeader).
    auto span = mem_space_.SpanAt(addr, bpf::kMapHeaderBytes);
    if (!span.ok()) continue;
    bpf::MapView probe(span.value());
    auto header = probe.Header();
    if (!header.ok()) continue;
    bpf::MapSpec spec;
    spec.name = "xstate_" + std::to_string(i);
    spec.type = header->type;
    spec.key_size = header->key_size;
    spec.value_size = header->value_size;
    spec.max_entries = header->max_entries;
    rt_.maps.emplace(addr, std::move(spec));
  }
}

std::uint64_t Sandbox::CommittedVersion(int hook) const {
  const auto slot = ReadWord(view_.hook_table_addr + hook * 8ull);
  if (!slot.ok() || slot.value() == 0) return 0;
  const auto version = ReadWord(slot.value() + kDescVersion);
  return version.ok() ? version.value() : 0;
}

Status Sandbox::LoadHookImage(int hook) {
  HookState& state = hooks_[hook];
  RDX_ASSIGN_OR_RETURN(const std::uint64_t image_addr,
                       ReadWord(state.visible_desc_addr + kDescImageAddr));
  RDX_ASSIGN_OR_RETURN(const std::uint64_t image_len,
                       ReadWord(state.visible_desc_addr + kDescImageLen));
  RDX_ASSIGN_OR_RETURN(MutableByteSpan raw,
                       mem_space_.SpanAt(image_addr, image_len));
  const ByteSpan bytes(raw.data(), raw.size());
  if (config_.signing_key != 0) {
    RDX_ASSIGN_OR_RETURN(
        const std::uint64_t signature,
        ReadWord(state.visible_desc_addr + kDescSignature));
    if (!VerifyImageSignature(bytes, config_.signing_key, signature)) {
      ++stats_.signature_failures;
      return PermissionDenied("image signature verification failed");
    }
  }
  // A decode failure means this CPU raced a non-transactional remote write
  // (torn image).
  auto image = DecodeImage(bytes);
  if (!image.ok()) {
    ++stats_.torn_image_failures;
    return image.status();
  }
  state.image = std::move(image).value();
  return OkStatus();
}

template <class Image>
StatusOr<const Image*> Sandbox::BeginExecution(int hook) {
  if (hook < 0 || hook >= static_cast<int>(hooks_.size())) {
    return InvalidArgument("hook out of range");
  }
  ++stats_.executions;
  HookState& state = hooks_[hook];
  if (state.visible_desc_addr == 0) {
    ++stats_.empty_hook_executions;
    return nullptr;
  }
  if (!state.image.has_value()) RDX_RETURN_IF_ERROR(LoadHookImage(hook));
  const Image* image = std::get_if<Image>(&*state.image);
  if (image == nullptr) {
    return FailedPrecondition(std::string("hook holds no ") +
                              ExtensionKind<Image>::kName + " image");
  }
  return image;
}

template <class Result>
StatusOr<Result> Sandbox::EndExecution(int hook, telemetry::RingEventKind kind,
                                       StatusOr<Result> result) {
  if (result.ok()) EmitTrace(kind, hook, 0, result->insns_executed);
  RecordHookOutcome(hook, result.ok() ? OkStatus() : result.status());
  return result;
}

StatusOr<bpf::ExecResult> Sandbox::ExecuteHook(int hook, ByteSpan packet) {
  RDX_ASSIGN_OR_RETURN(const bpf::JitImage* image,
                       BeginExecution<bpf::JitImage>(hook));
  if (image == nullptr) return bpf::ExecResult{1, 0};  // accept-by-default
  // Stage the packet into the ctx buffer in place. The buffer was
  // allocated from this DRAM at boot, so it is in bounds.
  const std::size_t len = std::min<std::size_t>(packet.size(), kCtxBytes);
  MutableByteSpan ctx = node_.memory().SpanForCpu(ctx_buf_addr_, kCtxBytes);
  std::memcpy(ctx.data(), packet.data(), len);
  std::memset(ctx.data() + len, 0, ctx.size() - len);

  bpf::ExecOptions opts;
  opts.ctx_addr = ctx_buf_addr_;
  opts.ctx_len = kCtxBytes;
  opts.stack_addr = stack_addr_;
  opts.insn_limit = config_.fuel_budget;
  return EndExecution(hook, telemetry::RingEventKind::kHookExecEbpf,
                      bpf::RunJit(*image, rt_, opts));
}

StatusOr<wasm::WasmResult> Sandbox::ExecuteWasmHook(int hook,
                                                    wasm::WasmHost& host) {
  RDX_ASSIGN_OR_RETURN(const wasm::WasmImage* image,
                       BeginExecution<wasm::WasmImage>(hook));
  if (image == nullptr) return wasm::WasmResult{1, 0};  // accept-by-default
  return EndExecution(hook, telemetry::RingEventKind::kHookExecWasm,
                      wasm::RunLowered(*image, host, config_.wasm_fuel_budget));
}

bool Sandbox::TryLockLocal(std::uint64_t owner) {
  const auto current = ReadWord(view_.cb_addr + kCbLock);
  if (!current.ok() || current.value() != 0) return false;
  return WriteWord(view_.cb_addr + kCbLock, owner).ok();
}

void Sandbox::UnlockLocal(std::uint64_t owner) {
  const auto current = ReadWord(view_.cb_addr + kCbLock);
  if (current.ok() && current.value() == owner) {
    (void)WriteWord(view_.cb_addr + kCbLock, 0);
  }
}

}  // namespace rdx::core
