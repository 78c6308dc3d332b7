#include "core/broadcast.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "core/for_all.h"
#include "core/reliability.h"

namespace rdx::core {

void CollectiveCodeFlow::CpSpan(const char* name, int hook,
                                sim::SimTime start, sim::Duration dur,
                                const char* args) {
  if (cp_.tracer() == nullptr) return;
  cp_.tracer()->AddComplete(name, static_cast<std::uint32_t>(cp_.self()),
                            static_cast<std::uint32_t>(hook), start, dur,
                            args);
}

template <class Prepare>
sim::Task<StatusOr<BroadcastResult>> CollectiveCodeFlow::PrepareAndCommit(
    Prepare& prepare, int hook, UpdateBarrier* barrier, sim::SimTime t0) {
  auto fail = [barrier](const Status& why) {
    if (barrier != nullptr) barrier->ReleaseBuffered();
    return why;
  };
  // Phase 1: prepare every node.
  std::vector<ControlPlane::PreparedImage> prepared(group_.size());
  auto prepare_one = [&](std::size_t i) -> sim::Task<Status> {
    RDX_CO_ASSIGN_OR_RETURN(prepared[i], co_await prepare(i));
    co_return OkStatus();
  };
  const Status all_prepared = co_await ForAll(group_.size(), prepare_one);
  if (!all_prepared.ok()) co_return fail(all_prepared);
  const sim::SimTime prepare_done = cp_.events().Now();

  // Phase 2: fire every qword commit in parallel.
  sim::SimTime first_commit = 0;
  auto commit_one = [&](std::size_t i) -> sim::Task<Status> {
    const Status s = co_await cp_.CommitPrepared(*group_[i], hook, prepared[i]);
    if (first_commit == 0) first_commit = cp_.events().Now();
    co_return s;
  };
  const Status all_committed = co_await ForAll(group_.size(), commit_one);
  if (!all_committed.ok()) co_return fail(all_committed);

  // Visibility barrier: the commits have landed in DRAM, but each
  // data-plane CPU sees its new hook only after the injected flush
  // executes. Poll the group (1 us cadence) until every sandbox serves the
  // new version, then release buffered requests — this is what guarantees
  // no request observes mixed logic.
  auto all_visible = [&] {
    for (std::size_t i = 0; i < group_.size(); ++i) {
      if (group_[i]->sandbox->VisibleVersion(hook) != prepared[i].version) {
        return false;
      }
    }
    return true;
  };
  while (!all_visible()) co_await sim::Sleep(cp_.events(), sim::Micros(1));

  BroadcastResult result;
  result.nodes = group_.size();
  result.prepare_time = prepare_done - t0;
  result.commit_window = cp_.events().Now() - first_commit;
  result.total = cp_.events().Now() - t0;
  if (barrier != nullptr) {
    result.buffered_requests = barrier->BufferedCount();
    barrier->ReleaseBuffered();
  }
  if (cp_.tracer() != nullptr) {
    // Waves render on the control plane's own pid, one lane per hook: the
    // prepare fan-out, then the commit window that BBU buffering covers.
    char args[96];
    std::snprintf(args, sizeof(args), "\"nodes\": %zu, \"buffered\": %zu",
                  result.nodes, result.buffered_requests);
    CpSpan("broadcast", hook, t0, result.total, args);
    CpSpan("broadcast:prepare", hook, t0, result.prepare_time);
    CpSpan("broadcast:commit_window", hook, first_commit,
           result.commit_window);
  }
  co_return result;
}

sim::Task<StatusOr<BroadcastResult>> CollectiveCodeFlow::Broadcast(
    bpf::Program prog, int hook, UpdateBarrier* barrier) {
  const sim::SimTime t0 = cp_.events().Now();
  if (barrier != nullptr) barrier->BeginBuffering();
  // Validate + compile once (the artifact cache makes this amortized),
  // then per node: deploy XStates, link, prepare.
  const std::uint64_t fp = ProgramFingerprint(prog);
  const StatusOr<ImagePtr<bpf::Program>> image = co_await cp_.Build(prog, fp);
  if (!image.ok()) {
    if (barrier != nullptr) barrier->ReleaseBuffered();
    co_return image.status();
  }
  auto prepare = [&](std::size_t i) {
    return cp_.LinkAndPrepare(*group_[i], prog, **image, hook, fp);
  };
  co_return co_await PrepareAndCommit(prepare, hook, barrier, t0);
}

sim::Task<StatusOr<BroadcastResult>> CollectiveCodeFlow::BroadcastWasm(
    std::vector<const wasm::FilterModule*> filters, int hook,
    UpdateBarrier* barrier) {
  if (filters.size() != group_.size()) {
    co_return InvalidArgument("one filter per group member required");
  }
  if (std::find(filters.begin(), filters.end(), nullptr) != filters.end()) {
    co_return InvalidArgument("null filter");
  }
  const sim::SimTime t0 = cp_.events().Now();
  if (barrier != nullptr) barrier->BeginBuffering();
  // Own copies, made before the first suspension: the caller's filters
  // need not outlive the async phases. One copy and one fingerprint per
  // distinct filter; callers usually pass the same filter to every node.
  std::vector<wasm::FilterModule> owned;
  std::vector<std::uint64_t> fps;
  std::vector<std::size_t> owned_of(filters.size());
  std::map<const wasm::FilterModule*, std::size_t> first_copy;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    const auto [it, fresh] = first_copy.emplace(filters[i], owned.size());
    if (fresh) {
      owned.push_back(*filters[i]);
      fps.push_back(WasmFingerprint(owned.back()));
    }
    owned_of[i] = it->second;
  }

  // Each node builds its filter (a shared image once one node compiled
  // it), then links and prepares it.
  auto prepare = [&](std::size_t i)
      -> sim::Task<StatusOr<ControlPlane::PreparedImage>> {
    const wasm::FilterModule& module = owned[owned_of[i]];
    const std::uint64_t fp = fps[owned_of[i]];
    RDX_CO_ASSIGN_OR_RETURN(const ImagePtr<wasm::FilterModule> image,
                            co_await cp_.Build(module, fp));
    co_return co_await cp_.LinkAndPrepare(*group_[i], module, *image, hook,
                                          fp);
  };
  co_return co_await PrepareAndCommit(prepare, hook, barrier, t0);
}

// ---- pipelined fleet deploy ----------------------------------------------

void CollectiveCodeFlow::DeployPipelined(
    const std::vector<DeploySpec>& specs, const PipelineOptions& opts,
    std::function<void(StatusOr<PipelineResult>)> done) {
  sim::Start(RunPipeline(specs, opts, std::move(done)), [] {});
}

sim::Task<void> CollectiveCodeFlow::RunPipeline(
    std::vector<DeploySpec> specs, PipelineOptions opts,
    std::function<void(StatusOr<PipelineResult>)> done) {
  const sim::SimTime t0 = cp_.events().Now();
  const std::size_t n = specs.size();
  // Own copies, made before the first suspension: the caller's programs
  // need not outlive the pipeline.
  std::vector<bpf::Program> progs;
  std::vector<std::uint64_t> fps;
  progs.reserve(n);
  fps.reserve(n);
  for (const DeploySpec& spec : specs) {
    if (spec.prog == nullptr) {
      done(InvalidArgument("null program in deploy spec"));
      co_return;
    }
    progs.push_back(*spec.prog);
    fps.push_back(ProgramFingerprint(progs.back()));
  }
  PipelineResult result;
  result.waves.resize(n);
  for (std::size_t k = 0; k < n; ++k) result.waves[k].hook = specs[k].hook;
  // Per-node completion tracking.
  result.nodes.resize(group_.size());
  for (std::size_t i = 0; i < group_.size(); ++i) {
    result.nodes[i].node = group_[i]->node();
  }
  std::vector<bool> alive(group_.size(), true);
  // Compile-stage -> deploy-stage handoff (the pipeline registers); an
  // image is non-null once its wave compiled.
  std::vector<ImagePtr<bpf::Program>> images(n);
  bool failed = false;  // terminal failure already reported
  auto fail = [&](const Status& why) {
    if (failed) return;
    failed = true;
    done(why);
  };

  // A straggler or faulted node is quarantined from the remaining waves.
  auto straggle = [&](std::size_t i, std::size_t wave, const Status& why) {
    if (!alive[i]) return;
    alive[i] = false;
    ++result.stragglers;
    NodeOutcome& out = result.nodes[i];
    out.status = why;
    out.failed_wave = static_cast<int>(wave);
    if (cp_.tracer() != nullptr) {
      char args[96];
      std::snprintf(args, sizeof(args), "\"node\": %u, \"wave\": %zu",
                    static_cast<unsigned>(out.node), wave);
      cp_.tracer()->AddInstant("pipeline:straggler",
                               static_cast<std::uint32_t>(cp_.self()),
                               static_cast<std::uint32_t>(specs[wave].hook),
                               args);
    }
    // Hand the failed deploy to the recovery layer in the background; the
    // pipeline result does not wait for the retry to settle.
    if (opts.recovery != nullptr) {
      out.retried_in_background = true;
      sim::Start(opts.recovery->DeployReliably(*group_[i], progs[wave],
                                               specs[wave].hook),
                 [](StatusOr<RecoveryOutcome>) {});
    }
  };

  // Compile stage: validate + JIT wave k (one artifact per fingerprint,
  // shared by all N targets), then, when pipelining, start on wave k+1 at
  // once. The compile in flight owns the slot through which the deploy
  // stage waits for it, so a torn-down compile frees the waiting pipeline.
  std::function<void()>* compile_waiter = nullptr;
  std::function<void(std::size_t)> start_compile;
  auto compile = [&](std::size_t k) -> sim::Task<void> {
    std::function<void()> waiter;
    compile_waiter = &waiter;
    const sim::SimTime start = cp_.events().Now();
    WaveResult& wave = result.waves[k];
    wave.compile_cache_hit =
        cp_.artifact_cache().HasImage(ArtifactCache::Kind::kEbpf, fps[k]);
    const StatusOr<ImagePtr<bpf::Program>> image =
        co_await cp_.Build(progs[k], fps[k]);
    compile_waiter = nullptr;
    if (!image.ok()) {
      fail(image.status());
    } else {
      images[k] = *image;
      wave.compile = cp_.events().Now() - start;
      if (wave.compile > 0) {
        CpSpan("pipeline:compile", wave.hook, start, wave.compile);
      }
      // The pipeline's overlap: start compiling the next wave while this
      // one's transfer + commit are still in flight.
      if (opts.pipelined && k + 1 < n) start_compile(k + 1);
    }
    // Last: the deploy stage may run on to the end of the pipeline.
    if (waiter) waiter();
  };
  start_compile = [&](std::size_t k) {
    if (!failed) sim::Start(compile(k), [] {});
  };
  // Suspends the deploy stage until the compile in flight finished.
  auto compiled = [&] {
    return sim::Await<void>(
        [&](auto resume) { *compile_waiter = std::move(resume); });
  };

  // Deploy stage: one wave at a time as artifacts appear.
  if (n > 0) start_compile(0);
  for (std::size_t k = 0; k < n && !failed; ++k) {
    if (images[k] == nullptr) {
      co_await compiled();
      if (failed) break;
    }
    const int hook = specs[k].hook;
    WaveResult& wave = result.waves[k];
    const sim::SimTime wave_start = cp_.events().Now();
    // A node-level failure either quarantines the node (straggler
    // isolation) or, when isolation is off, fails the wave.
    auto node_failed = [&](std::size_t i, const Status& why) {
      if (!opts.isolate_stragglers) return why;
      straggle(i, k, why);
      return OkStatus();
    };
    // One dispatch charge per wave: the control plane assembles every
    // node's WR chains in a single pass, instead of paying the rdx
    // dispatch overhead once per node as the serial path does.
    co_await sim::Sleep(cp_.events(), cp_.config().cost.rdx_dispatch_overhead);
    // Per node: the prepared image, once its XStates, link and prepare
    // succeeded. The image chunks ride one doorbell-batched chain per node.
    std::vector<std::optional<ControlPlane::PreparedImage>> prepared(
        group_.size());
    auto prepare = [&](std::size_t i) -> sim::Task<Status> {
      if (!alive[i]) co_return OkStatus();
      StatusOr<ControlPlane::PreparedImage> p = co_await cp_.LinkAndPrepare(
          *group_[i], progs[k], *images[k], hook, fps[k]);
      if (!p.ok()) co_return node_failed(i, p.status());
      prepared[i] = *p;
      co_return OkStatus();
    };
    const Status all_prepared = co_await ForAll(group_.size(), prepare);
    if (failed) break;
    if (!all_prepared.ok()) {
      fail(all_prepared);
      break;
    }
    wave.transfer = cp_.events().Now() - wave_start;
    CpSpan("pipeline:transfer", hook, wave_start, wave.transfer);

    // Commit wave: CAS every prepared node concurrently, one fan-out
    // across the per-node QPs.
    const sim::SimTime commit_start = cp_.events().Now();
    auto commit = [&](std::size_t i) -> sim::Task<Status> {
      if (!alive[i] || !prepared[i]) co_return OkStatus();
      CodeFlow& flow = *group_[i];
      auto it = flow.hooks_.find(hook);
      const std::uint64_t expected =
          it == flow.hooks_.end() ? 0 : it->second.desc_addr;
      const Status s =
          co_await cp_.CommitPreparedCas(flow, hook, *prepared[i], expected);
      if (!s.ok()) co_return node_failed(i, s);
      ++result.nodes[i].waves_committed;
      ++wave.committed;
      co_return OkStatus();
    };
    const Status all_committed = co_await ForAll(group_.size(), commit);
    if (failed) break;
    if (!all_committed.ok()) {
      fail(all_committed);
      break;
    }
    wave.commit = cp_.events().Now() - commit_start;
    CpSpan("pipeline:commit", hook, commit_start, wave.commit);
    // Serial schedule: the next wave's compile starts only now.
    if (!opts.pipelined && k + 1 < n && images[k + 1] == nullptr) {
      start_compile(k + 1);
    }
  }
  if (!failed) {
    result.total = cp_.events().Now() - t0;
    if (cp_.tracer() != nullptr) {
      char args[96];
      std::snprintf(args, sizeof(args),
                    "\"nodes\": %zu, \"waves\": %zu, \"stragglers\": %zu",
                    result.nodes.size(), result.waves.size(),
                    result.stragglers);
      CpSpan("pipeline", 0, t0, result.total, args);
    }
    done(std::move(result));
  }
  // A failure can leave a compile in flight; it refers to this frame.
  while (compile_waiter != nullptr) co_await compiled();
}

}  // namespace rdx::core
