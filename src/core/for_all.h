// Fan-in helper shared by every parallel fan-out in the control plane and
// the agent baseline.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "common/status.h"
#include "sim/task.h"

namespace rdx::core {

// Runs `launch(i, done_i)` for each index and calls `done` once all have
// reported, with the first error winning. With n == 0, `done` runs at once.
inline void ForAll(
    std::size_t n,
    const std::function<void(std::size_t, std::function<void(Status)>)>&
        launch,
    std::function<void(Status)> done) {
  if (n == 0) {
    done(OkStatus());
    return;
  }
  struct State {
    std::size_t remaining;
    Status first_error;
    std::function<void(Status)> done;
  };
  auto state = std::make_shared<State>();
  state->remaining = n;
  state->done = std::move(done);
  for (std::size_t i = 0; i < n; ++i) {
    launch(i, [state](Status s) {
      if (!s.ok() && state->first_error.ok()) state->first_error = s;
      if (--state->remaining == 0) state->done(state->first_error);
    });
  }
}

// ForAll for coroutines: `co_await ForAll(n, task)` starts `task(i)` for
// each index, in order and each up to its first suspension, and resumes
// with the first error once all finished. `task` is taken by reference
// because the tasks it makes may refer to it: keep it in the awaiting
// coroutine's frame.
template <class MakeTask>
auto ForAll(std::size_t n, MakeTask& task) {
  return sim::Await<Status>([n, &task](auto done) {
    ForAll(
        n,
        [&task](std::size_t i, std::function<void(Status)> done_i) {
          sim::Start(task(i), std::move(done_i));
        },
        std::move(done));
  });
}

}  // namespace rdx::core
