// Straight-line control-plane flows: a lazy coroutine task, `Start` for
// callers that are not coroutines, and `Await`, the one bridge from a
// callback API (a CPU charge, a timer, WR completions) into a coroutine.
//
// Everything resumes inline. A finished task resumes its awaiter by
// symmetric transfer, and a bridged callback resumes its coroutine inside
// the callback, even when the callee fires it before returning. So each
// step runs at exactly the point in the event order where a callback
// would run, and no event is added.
//
// Ownership: a frame owns the frames it awaits (through their Task), and
// the outermost frame, created by Start, owns the chain. While a chain is
// suspended, the pending callback that will resume it owns the outermost
// frame; if every copy of that callback is destroyed unfired (its event
// queue or control plane went away), the whole chain is destroyed with it.
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/status.h"

namespace rdx::sim {

template <class T = void>
class Task;

namespace detail {

// What every frame of a chain knows: the frame awaiting it, and the
// outermost frame, which owns the chain.
struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::coroutine_handle<> root;
  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() { std::terminate(); }
};

// A finished task hands control straight back to its awaiter.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <class P>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<P> self) const noexcept {
    return self.promise().continuation;
  }
  void await_resume() const noexcept {}
};

template <class T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  FinalAwaiter final_suspend() noexcept { return {}; }
  void return_value(T v) { value.emplace(std::move(v)); }
  T Take() { return std::move(*value); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  FinalAwaiter final_suspend() noexcept { return {}; }
  void return_void() {}
  void Take() {}
};

// The outermost frame of a chain: runs at once, frees itself when done.
struct Detached {
  struct promise_type : PromiseBase {
    promise_type() {
      root = std::coroutine_handle<promise_type>::from_promise(*this);
    }
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
  };
};

template <class T, class F>
Detached RunDetached(Task<T> task, F done) {
  if constexpr (std::is_void_v<T>) {
    co_await std::move(task);
    done();
  } else {
    done(co_await std::move(task));
  }
}

// A pending callback's claim on a suspended chain: it resumes `frame` at
// most once; if no copy of the callback ever fires, the last one to go
// destroys the chain.
struct Suspension {
  std::coroutine_handle<> frame;
  std::coroutine_handle<> root;
  bool fired = false;
  Suspension(std::coroutine_handle<> f, std::coroutine_handle<> r)
      : frame(f), root(r) {}
  Suspension(const Suspension&) = delete;
  Suspension& operator=(const Suspension&) = delete;
  ~Suspension() {
    if (!fired) root.destroy();
  }
  // Marks the claim spent; false if it already was.
  bool Fire() { return !std::exchange(fired, true); }
};

}  // namespace detail

// A lazily started coroutine producing a T. Awaiting it runs it; Start
// runs it from code that is not a coroutine.
template <class T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  template <class P>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<P> awaiter) noexcept {
    h_.promise().continuation = awaiter;
    h_.promise().root = awaiter.promise().root;
    return h_;
  }
  T await_resume() { return h_.promise().Take(); }

 private:
  friend promise_type;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

namespace detail {
template <class T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}
inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}
}  // namespace detail

// Runs `task` now, up to its first suspension, and hands its result to
// `done` exactly once when it finishes.
template <class T, class F>
void Start(Task<T> task, F done) {
  detail::RunDetached(std::move(task), std::move(done));
}

// The callback an Await launch receives: copyable, so it fits any
// std::function parameter. The first call resumes the awaiting coroutine
// with its argument; later calls are ignored.
template <class T>
class Resume {
 public:
  Resume(std::shared_ptr<detail::Suspension> s, std::optional<T>* slot)
      : s_(std::move(s)), slot_(slot) {}
  void operator()(T value) const {
    if (!s_->Fire()) return;
    slot_->emplace(std::move(value));
    s_->frame.resume();
  }

 private:
  std::shared_ptr<detail::Suspension> s_;
  std::optional<T>* slot_;
};

template <>
class Resume<void> {
 public:
  Resume(std::shared_ptr<detail::Suspension> s, std::optional<bool>*)
      : s_(std::move(s)) {}
  void operator()() const {
    if (s_->Fire()) s_->frame.resume();
  }

 private:
  std::shared_ptr<detail::Suspension> s_;
};

template <class T, class Launch>
class [[nodiscard]] Bridge {
  using Slot = std::optional<std::conditional_t<std::is_void_v<T>, bool, T>>;

 public:
  explicit Bridge(Launch launch) : launch_(std::move(launch)) {}

  bool await_ready() const noexcept { return false; }
  template <class P>
  void await_suspend(std::coroutine_handle<P> self) {
    // The launch may resume, and even finish, this coroutine before it
    // returns; so it runs from the stack, and nothing here touches the
    // frame after it.
    Launch launch = std::move(launch_);
    launch(Resume<T>(
        std::make_shared<detail::Suspension>(self, self.promise().root),
        &result_));
  }
  T await_resume() {
    if constexpr (!std::is_void_v<T>) return std::move(*result_);
  }

 private:
  Launch launch_;
  Slot result_;
};

// `co_await Await<T>([&](auto done) { api(..., done); })` suspends until
// the API calls `done` (with a T, or with nothing when T is void) and
// yields what it passed.
template <class T, class Launch>
Bridge<T, Launch> Await(Launch launch) {
  return Bridge<T, Launch>(std::move(launch));
}

}  // namespace rdx::sim

// Early returns for coroutines, in the style of RDX_RETURN_IF_ERROR and
// RDX_ASSIGN_OR_RETURN (common/status.h).
#define RDX_CO_RETURN_IF_ERROR(expr)                    \
  do {                                                  \
    ::rdx::Status rdx_co_status_ = (expr);              \
    if (!rdx_co_status_.ok()) co_return rdx_co_status_; \
  } while (0)

#define RDX_CO_ASSIGN_OR_RETURN(lhs, expr)                      \
  auto RDX_CONCAT_(rdx_co_statusor_, __LINE__) = (expr);        \
  if (!RDX_CONCAT_(rdx_co_statusor_, __LINE__).ok())            \
    co_return RDX_CONCAT_(rdx_co_statusor_, __LINE__).status(); \
  lhs = std::move(RDX_CONCAT_(rdx_co_statusor_, __LINE__)).value()
