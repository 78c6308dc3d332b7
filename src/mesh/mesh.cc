#include "mesh/mesh.h"

#include <array>

namespace rdx::mesh {

namespace {
// Host-function table order must match SandboxConfig::wasm_host_fns.
enum HostFn : std::int32_t {
  kGetHeader = 0,
  kSetHeader = 1,
  kCounterIncr = 2,
  kLogEvent = 3,
};
}  // namespace

StatusOr<std::uint64_t> SidecarHost::CallHost(std::int32_t host_fn,
                                              std::uint64_t arg0,
                                              std::uint64_t arg1) {
  switch (host_fn) {
    case kGetHeader:
      return headers_[arg0 & 15];
    case kSetHeader:
      headers_[arg0 & 15] = arg1;
      return 0ull;
    case kCounterIncr:
      counter_ += arg0 == 0 ? 1 : arg0;
      return counter_;
    case kLogEvent:
      ++log_events_;
      return 0ull;
    default:
      return Unimplemented("unknown host function");
  }
}

void SidecarHost::BeginRequest(std::uint64_t request_id) {
  // Deterministic pseudo-headers derived from the request id.
  for (int i = 0; i < 16; ++i) {
    headers_[i] = request_id * 1099511628211ull + static_cast<std::uint64_t>(i);
  }
}

MeshSim::MeshSim(sim::EventQueue& events, rdma::Fabric& fabric,
                 MeshConfig config)
    : events_(events), config_(std::move(config)), rng_(config_.seed) {
  traversal_ = config_.app.TraversalOrder();
  for (std::size_t i = 0; i < config_.app.size(); ++i) {
    auto service = std::make_unique<Service>();
    service->node =
        &fabric.AddNode(config_.app.services[i].name, 32u << 20);
    service->cpu = std::make_unique<sim::CpuScheduler>(
        events_, config_.cores_per_service, config_.cost.cpu_hz);
    core::SandboxConfig sandbox_config;
    sandbox_config.cpki = config_.sandbox_cpki;
    sandbox_config.seed = config_.seed + i;
    service->sandbox = std::make_unique<core::Sandbox>(
        events_, *service->node, sandbox_config);
    Status booted = service->sandbox->CtxInit();
    (void)booted;
    services_.push_back(std::move(service));
  }
  metrics_.window_start = events_.Now();
}

std::vector<core::Sandbox*> MeshSim::sandboxes() {
  std::vector<core::Sandbox*> out;
  out.reserve(services_.size());
  for (auto& service : services_) out.push_back(service->sandbox.get());
  return out;
}

void MeshSim::StartWorkload() {
  if (running_) return;
  running_ = true;
  metrics_.window_start = events_.Now();
  ScheduleNextArrival();
}

void MeshSim::StopWorkload() { running_ = false; }

MeshMetrics MeshSim::TakeMetrics() {
  metrics_.window_end = events_.Now();
  MeshMetrics out = metrics_;
  metrics_ = MeshMetrics{};
  metrics_.window_start = events_.Now();
  return out;
}

void MeshSim::ScheduleNextArrival() {
  if (!running_) return;
  const double mean_gap_ns = 1e9 / config_.request_rate_per_s;
  const auto gap = static_cast<sim::Duration>(
      rng_.NextExponential(mean_gap_ns));
  events_.ScheduleAfter(std::max<sim::Duration>(gap, 1), [this] {
    if (!running_) return;
    ++metrics_.issued;
    auto request = std::make_shared<Request>();
    request->id = next_request_id_++;
    request->start = events_.Now();
    request->path = traversal_;
    if (buffering_) {
      buffered_.push_back(request);
      metrics_.buffered_peak =
          std::max<std::uint64_t>(metrics_.buffered_peak, buffered_.size());
    } else {
      Dispatch(request);
    }
    ScheduleNextArrival();
  });
}

void MeshSim::Dispatch(std::shared_ptr<Request> request) {
  RunHop(std::move(request));
}

void MeshSim::RunHop(std::shared_ptr<Request> request) {
  if (request->next_hop >= request->path.size() || request->failed) {
    Complete(std::move(request));
    return;
  }
  const int svc = request->path[request->next_hop++];
  Service& service = *services_[svc];

  // Execute the sidecar extensions on this hop (functionally, now) and
  // charge their retired instructions plus the base request service to
  // the node CPU (in virtual time).
  std::uint64_t ext_cycles = 0;
  service.host.BeginRequest(request->id);

  if (service.sandbox->VisibleVersion(config_.wasm_hook) != 0) {
    auto result =
        service.sandbox->ExecuteWasmHook(config_.wasm_hook, service.host);
    if (!result.ok()) {
      request->failed = true;
    } else {
      ext_cycles += config_.cost.ExtensionExecCycles(result->insns_executed);
      const std::uint64_t version =
          service.sandbox->VisibleVersion(config_.wasm_hook);
      request->min_version = std::min(request->min_version, version);
      request->max_version = std::max(request->max_version, version);
    }
  }
  if (!request->failed &&
      service.sandbox->VisibleVersion(config_.ebpf_hook) != 0) {
    std::array<std::uint8_t, 8> packet{};
    StoreLE(packet.data(), request->id);
    auto result = service.sandbox->ExecuteHook(config_.ebpf_hook, packet);
    if (!result.ok()) {
      request->failed = true;
    } else {
      ext_cycles += config_.cost.ExtensionExecCycles(result->insns_executed);
    }
  }
  // Trace-ring emits ride on the hop's CPU budget — this is where
  // telemetry's data-plane cost becomes virtual time.
  ext_cycles +=
      config_.cost.trace_emit_cycles * service.sandbox->DrainTraceEmits();

  service.cpu->Submit(config_.cost.mesh_request_cycles + ext_cycles,
                      [this, request = std::move(request)]() mutable {
                        RunHop(std::move(request));
                      });
}

void MeshSim::Complete(std::shared_ptr<Request> request) {
  if (request->failed) {
    ++metrics_.failed;
    return;
  }
  ++metrics_.completed;
  metrics_.latency_ns.Add(
      static_cast<std::uint64_t>(events_.Now() - request->start));
  if (request->max_version != 0 &&
      request->min_version != request->max_version) {
    ++metrics_.mixed_version;
  }
}

void MeshSim::BeginBuffering() { buffering_ = true; }

void MeshSim::ReleaseBuffered() {
  buffering_ = false;
  while (!buffered_.empty()) {
    auto request = std::move(buffered_.front());
    buffered_.pop_front();
    Dispatch(std::move(request));
  }
}

}  // namespace rdx::mesh
