// Fan-in helper shared by every parallel fan-out in the control plane and
// the agent baseline.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "common/status.h"
#include "sim/task.h"

namespace rdx::core {

// `co_await ForAll(n, task)` starts `task(i)` for each index, in order and
// each up to its first suspension, and resumes with the first error once
// all finished; with n == 0 it resumes at once. `task` is taken by
// reference because the tasks it makes may refer to it: keep it in the
// awaiting coroutine's frame.
template <class MakeTask>
auto ForAll(std::size_t n, MakeTask& task) {
  return sim::Await<Status>([n, &task](auto resume) {
    if (n == 0) return resume(OkStatus());
    struct FanIn {
      std::size_t remaining;
      Status first_error;
      decltype(resume) done;
    };
    auto fan_in = std::make_shared<FanIn>(FanIn{n, {}, std::move(resume)});
    for (std::size_t i = 0; i < n; ++i) {
      sim::Start(task(i), [fan_in](Status s) {
        if (!s.ok() && fan_in->first_error.ok()) fan_in->first_error = s;
        if (--fan_in->remaining == 0) fan_in->done(fan_in->first_error);
      });
    }
  });
}

}  // namespace rdx::core
