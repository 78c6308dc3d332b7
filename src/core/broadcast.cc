#include "core/broadcast.h"

#include <cstdio>
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

void CollectiveCodeFlow::Broadcast(
    const bpf::Program& prog, int hook, UpdateBarrier* barrier,
    std::function<void(StatusOr<BroadcastResult>)> done) {
  const sim::SimTime t0 = cp_.events().Now();
  if (barrier != nullptr) barrier->BeginBuffering();
  // Own a copy: the caller's program need not outlive the async phases.
  auto prog_copy = std::make_shared<bpf::Program>(prog);

  // Validate + compile once (the artifact cache makes this amortized),
  // then per node: deploy XStates, link, prepare.
  cp_.Build(*prog_copy, [this, prog_copy, hook, barrier, t0,
                         done = std::move(done)](
                            StatusOr<const bpf::JitImage*> image) mutable {
    if (!image.ok()) {
      if (barrier != nullptr) barrier->ReleaseBuffered();
      done(image.status());
      return;
    }
    const std::uint64_t fp = ProgramFingerprint(*prog_copy);
    PrepareAndCommit(
        [this, prog_copy, image = *image, hook, fp](std::size_t i,
                                                     PrepareDone done_i) {
          cp_.LinkAndPrepare(*group_[i], *prog_copy, *image, hook, fp,
                             std::move(done_i));
        },
        hook, barrier, t0, std::move(done));
  });
}

void CollectiveCodeFlow::BroadcastWasm(
    const std::vector<const wasm::FilterModule*>& filters, int hook,
    UpdateBarrier* barrier,
    std::function<void(StatusOr<BroadcastResult>)> done) {
  if (filters.size() != group_.size()) {
    done(InvalidArgument("one filter per group member required"));
    return;
  }
  const sim::SimTime t0 = cp_.events().Now();
  if (barrier != nullptr) barrier->BeginBuffering();

  // Own copies: the caller's filters need not outlive the async phases.
  auto owned = std::make_shared<std::vector<wasm::FilterModule>>();
  owned->reserve(filters.size());
  for (const wasm::FilterModule* filter : filters) owned->push_back(*filter);

  PrepareAndCommit(
      [this, owned, hook](std::size_t i, PrepareDone done_i) {
        const wasm::FilterModule& module = (*owned)[i];
        cp_.Build(module, [this, owned, &module, i, hook,
                           done_i = std::move(done_i)](
                              StatusOr<const wasm::WasmImage*> image) mutable {
          if (!image.ok()) {
            done_i(image.status());
            return;
          }
          cp_.LinkAndPrepare(*group_[i], module, **image, hook,
                             WasmFingerprint(module), std::move(done_i));
        });
      },
      hook, barrier, t0, std::move(done));
}

void CollectiveCodeFlow::PrepareAndCommit(
    std::function<void(std::size_t, PrepareDone)> prepare, int hook,
    UpdateBarrier* barrier, sim::SimTime t0,
    std::function<void(StatusOr<BroadcastResult>)> done) {
  auto prepared = std::make_shared<std::vector<ControlPlane::PreparedImage>>(
      group_.size());
  auto first_commit = std::make_shared<sim::SimTime>(0);
  auto fail = [barrier](const Status& why,
                        std::function<void(StatusOr<BroadcastResult>)>& cb) {
    if (barrier != nullptr) barrier->ReleaseBuffered();
    cb(why);
  };
  // Phase 1: prepare every node.
  ForAll(
      group_.size(),
      [prepare = std::move(prepare), prepared](
          std::size_t i, std::function<void(Status)> done_i) {
        prepare(i, [prepared, i, done_i](
                       StatusOr<ControlPlane::PreparedImage> p) {
          if (p.ok()) (*prepared)[i] = p.value();
          done_i(p.status());
        });
      },
      [this, prepared, first_commit, fail, hook, barrier, t0,
       done = std::move(done)](Status all) mutable {
        if (!all.ok()) {
          fail(all, done);
          return;
        }
        const sim::SimTime prepare_done = cp_.events().Now();
        // Phase 2: fire every qword commit in parallel.
        ForAll(
            group_.size(),
            [this, prepared, hook, first_commit](
                std::size_t i, std::function<void(Status)> done_i) {
              cp_.CommitPrepared(*group_[i], hook, (*prepared)[i],
                                 [this, first_commit, done_i](Status s) {
                                   if (*first_commit == 0) {
                                     *first_commit = cp_.events().Now();
                                   }
                                   done_i(s);
                                 });
            },
            [this, barrier, hook, t0, prepare_done, first_commit, prepared,
             fail, done = std::move(done)](Status all2) mutable {
              if (!all2.ok()) {
                fail(all2, done);
                return;
              }
              // Visibility barrier: the commits have landed in DRAM, but
              // each data-plane CPU sees its new hook only after the
              // injected flush executes. Poll the group (1 us cadence)
              // until every sandbox serves the new version, then release
              // buffered requests — this is what guarantees no request
              // observes mixed logic.
              auto wait_visible = std::make_shared<std::function<void()>>();
              std::weak_ptr<std::function<void()>> weak = wait_visible;
              *wait_visible = [this, barrier, hook, t0, prepare_done,
                               first_commit, prepared, done, weak] {
                auto self = weak.lock();
                if (!self) return;
                for (std::size_t i = 0; i < group_.size(); ++i) {
                  if (group_[i]->sandbox->VisibleVersion(hook) !=
                      (*prepared)[i].version) {
                    cp_.events().ScheduleAfter(sim::Micros(1),
                                               [self] { (*self)(); });
                    return;
                  }
                }
                BroadcastResult result;
                result.nodes = group_.size();
                result.prepare_time = prepare_done - t0;
                result.commit_window = cp_.events().Now() - *first_commit;
                result.total = cp_.events().Now() - t0;
                if (barrier != nullptr) {
                  result.buffered_requests = barrier->BufferedCount();
                  barrier->ReleaseBuffered();
                }
                if (cp_.tracer() != nullptr) {
                  // Waves render on the control plane's own pid, one lane
                  // per hook: the prepare fan-out, then the commit window
                  // that BBU buffering covers.
                  char args[96];
                  std::snprintf(args, sizeof(args),
                                "\"nodes\": %zu, \"buffered\": %zu",
                                result.nodes, result.buffered_requests);
                  CpSpan("broadcast", hook, t0, result.total, args);
                  CpSpan("broadcast:prepare", hook, t0, result.prepare_time);
                  CpSpan("broadcast:commit_window", hook, *first_commit,
                         result.commit_window);
                }
                done(result);
              };
              (*wait_visible)();
            });
      });
}

// ---- pipelined fleet deploy ----------------------------------------------

struct CollectiveCodeFlow::PipelineState {
  // Owned copies: callers' specs need not outlive the async pipeline.
  std::vector<bpf::Program> progs;
  std::vector<int> hooks;
  PipelineOptions opts;
  sim::SimTime t0 = 0;
  std::function<void(StatusOr<PipelineResult>)> done;
  bool failed = false;  // terminal failure already reported

  // Per-node completion tracking.
  std::vector<NodeOutcome> nodes;
  std::vector<bool> alive;
  std::size_t stragglers = 0;

  // Compile-stage -> deploy-stage handoff (the pipeline registers); an
  // image is non-null once its wave compiled.
  std::vector<const bpf::JitImage*> images;
  std::vector<WaveResult> waves;
  std::size_t next_deploy = 0;
  bool deploying = false;
};

void CollectiveCodeFlow::DeployPipelined(
    const std::vector<DeploySpec>& specs, const PipelineOptions& opts,
    std::function<void(StatusOr<PipelineResult>)> done) {
  auto st = std::make_shared<PipelineState>();
  st->opts = opts;
  st->t0 = cp_.events().Now();
  st->done = std::move(done);
  st->progs.reserve(specs.size());
  st->hooks.reserve(specs.size());
  for (const DeploySpec& spec : specs) {
    if (spec.prog == nullptr) {
      st->done(InvalidArgument("null program in deploy spec"));
      return;
    }
    st->progs.push_back(*spec.prog);
    st->hooks.push_back(spec.hook);
  }
  st->waves.resize(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    st->waves[k].hook = st->hooks[k];
  }
  st->images.resize(specs.size(), nullptr);
  st->nodes.resize(group_.size());
  st->alive.assign(group_.size(), true);
  for (std::size_t i = 0; i < group_.size(); ++i) {
    st->nodes[i].node = group_[i]->node();
  }
  if (specs.empty()) {
    FinishPipeline(st);
    return;
  }
  CompileWave(st, 0);
}

void CollectiveCodeFlow::CompileWave(std::shared_ptr<PipelineState> st,
                                     std::size_t k) {
  if (st->failed) return;
  const sim::SimTime start = cp_.events().Now();
  st->waves[k].compile_cache_hit = cp_.artifact_cache().HasImage(
      ArtifactCache::Kind::kEbpf, ProgramFingerprint(st->progs[k]));
  cp_.Build(st->progs[k], [this, st, k, start](
                              StatusOr<const bpf::JitImage*> img) {
    if (!img.ok()) {
      AbortPipeline(st, img.status());
      return;
    }
    st->images[k] = img.value();
    st->waves[k].compile = cp_.events().Now() - start;
    if (st->waves[k].compile > 0) {
      CpSpan("pipeline:compile", st->hooks[k], start, st->waves[k].compile);
    }
    // The pipeline's overlap: start compiling the next wave while this
    // one's transfer + commit are still in flight.
    if (st->opts.pipelined && k + 1 < st->progs.size()) {
      CompileWave(st, k + 1);
    }
    TryDeployWave(st);
  });
}

void CollectiveCodeFlow::TryDeployWave(std::shared_ptr<PipelineState> st) {
  if (st->failed || st->deploying) return;
  if (st->next_deploy >= st->progs.size()) {
    FinishPipeline(st);
    return;
  }
  if (st->images[st->next_deploy] == nullptr) return;
  st->deploying = true;
  const std::size_t k = st->next_deploy;
  DeployWave(st, k, [this, st, k] {
    st->deploying = false;
    ++st->next_deploy;
    if (st->failed) return;
    // Serial schedule: the next wave's compile starts only now.
    if (!st->opts.pipelined && k + 1 < st->progs.size() &&
        st->images[k + 1] == nullptr) {
      CompileWave(st, k + 1);
      return;
    }
    TryDeployWave(st);
  });
}

void CollectiveCodeFlow::DeployWave(std::shared_ptr<PipelineState> st,
                                    std::size_t k,
                                    std::function<void()> wave_done) {
  const int hook = st->hooks[k];
  const std::uint64_t fp = ProgramFingerprint(st->progs[k]);
  const bpf::JitImage* image = st->images[k];
  const sim::SimTime wave_start = cp_.events().Now();
  // Per node: the prepared image, once its XStates, link and prepare
  // succeeded.
  auto prepared = std::make_shared<
      std::vector<std::optional<ControlPlane::PreparedImage>>>(group_.size());
  auto wave_done_shared =
      std::make_shared<std::function<void()>>(std::move(wave_done));
  // A node-level failure either quarantines the node (straggler
  // isolation) or, when isolation is off, fails the wave.
  auto node_failed = [this, st, k](std::size_t i, const Status& why,
                                   const std::function<void(Status)>& done_i) {
    if (st->opts.isolate_stragglers) {
      MarkStraggler(st, i, k, why);
      done_i(OkStatus());
    } else {
      done_i(why);
    }
  };

  // One dispatch charge per wave: the control plane assembles every
  // node's WR chains in a single pass, instead of paying the rdx
  // dispatch overhead once per node as the serial path does.
  cp_.events().ScheduleAfter(
      cp_.config().cost.rdx_dispatch_overhead,
      [this, st, k, hook, fp, image, wave_start, prepared, node_failed,
       wave_done_shared] {
        ForAll(
            group_.size(),
            [this, st, k, hook, fp, image, prepared, node_failed](
                std::size_t i, std::function<void(Status)> done_i) {
              if (!st->alive[i]) {
                done_i(OkStatus());
                return;
              }
              // The image chunks ride one doorbell-batched chain per node.
              cp_.LinkAndPrepare(
                  *group_[i], st->progs[k], *image, hook, fp,
                  [prepared, i, done_i, node_failed](
                      StatusOr<ControlPlane::PreparedImage> p) {
                    if (!p.ok()) {
                      node_failed(i, p.status(), done_i);
                      return;
                    }
                    (*prepared)[i] = p.value();
                    done_i(OkStatus());
                  });
            },
            [this, st, k, hook, wave_start, prepared, node_failed,
             wave_done_shared](Status all) {
              if (st->failed) {
                (*wave_done_shared)();
                return;
              }
              if (!all.ok()) {
                AbortPipeline(st, all);
                (*wave_done_shared)();
                return;
              }
              st->waves[k].transfer = cp_.events().Now() - wave_start;
              CpSpan("pipeline:transfer", hook, wave_start,
                     st->waves[k].transfer);
              // Commit wave: CAS every prepared node concurrently, one
              // fan-out across the per-node QPs.
              const sim::SimTime commit_start = cp_.events().Now();
              ForAll(
                  group_.size(),
                  [this, st, k, hook, prepared, node_failed](
                      std::size_t i, std::function<void(Status)> done_i) {
                    if (!st->alive[i] || !(*prepared)[i]) {
                      done_i(OkStatus());
                      return;
                    }
                    CodeFlow& flow = *group_[i];
                    auto it = flow.hooks_.find(hook);
                    const std::uint64_t expected =
                        it == flow.hooks_.end() ? 0 : it->second.desc_addr;
                    cp_.CommitPreparedCas(
                        flow, hook, *(*prepared)[i], expected,
                        [this, st, k, i, done_i,
                         node_failed](Status s) {
                          if (!s.ok()) {
                            node_failed(i, s, done_i);
                            return;
                          }
                          ++st->nodes[i].waves_committed;
                          ++st->waves[k].committed;
                          done_i(OkStatus());
                        });
                  },
                  [this, st, k, hook, commit_start,
                   wave_done_shared](Status all2) {
                    if (st->failed) {
                      (*wave_done_shared)();
                      return;
                    }
                    if (!all2.ok()) {
                      AbortPipeline(st, all2);
                      (*wave_done_shared)();
                      return;
                    }
                    st->waves[k].commit = cp_.events().Now() - commit_start;
                    CpSpan("pipeline:commit", hook, commit_start,
                           st->waves[k].commit);
                    (*wave_done_shared)();
                  });
            });
      });
}

void CollectiveCodeFlow::MarkStraggler(std::shared_ptr<PipelineState> st,
                                       std::size_t i, std::size_t wave,
                                       const Status& why) {
  if (!st->alive[i]) return;
  st->alive[i] = false;
  ++st->stragglers;
  NodeOutcome& out = st->nodes[i];
  out.status = why;
  out.failed_wave = static_cast<int>(wave);
  if (cp_.tracer() != nullptr) {
    char args[96];
    std::snprintf(args, sizeof(args), "\"node\": %u, \"wave\": %zu",
                  static_cast<unsigned>(out.node), wave);
    cp_.tracer()->AddInstant("pipeline:straggler",
                             static_cast<std::uint32_t>(cp_.self()),
                             static_cast<std::uint32_t>(st->hooks[wave]),
                             args);
  }
  // Hand the failed deploy to the recovery layer in the background; the
  // pipeline result does not wait for the retry to settle.
  if (st->opts.recovery != nullptr) {
    out.retried_in_background = true;
    st->opts.recovery->DeployReliably(
        *group_[i], st->progs[wave], st->hooks[wave],
        [st](StatusOr<RecoveryOutcome> r) { (void)r; });
  }
}

void CollectiveCodeFlow::AbortPipeline(std::shared_ptr<PipelineState> st,
                                       const Status& why) {
  if (st->failed) return;
  st->failed = true;
  st->done(why);
}

void CollectiveCodeFlow::FinishPipeline(std::shared_ptr<PipelineState> st) {
  if (st->failed) return;
  PipelineResult result;
  result.waves = std::move(st->waves);
  result.nodes = std::move(st->nodes);
  result.total = cp_.events().Now() - st->t0;
  result.stragglers = st->stragglers;
  if (cp_.tracer() != nullptr) {
    char args[96];
    std::snprintf(args, sizeof(args),
                  "\"nodes\": %zu, \"waves\": %zu, \"stragglers\": %zu",
                  result.nodes.size(), result.waves.size(),
                  result.stragglers);
    CpSpan("pipeline", 0, st->t0, result.total, args);
  }
  st->done(std::move(result));
}

}  // namespace rdx::core
