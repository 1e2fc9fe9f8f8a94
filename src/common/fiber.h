#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace rocc {

/// Cooperative userspace fibers for simulating many-core interleaving on
/// CPU-starved hosts.
///
/// The paper's evaluation binds one worker per physical core; a transaction's
/// wall-clock lifetime therefore overlaps every other core's commits, which
/// is the phenomenon GWV's global validation pays for. When this
/// reproduction runs on fewer cores than workers, OS timeslicing switches at
/// millisecond granularity and those overlap windows collapse.
///
/// A FiberScheduler runs N logical workers on ONE OS thread, switching
/// between them with a ~30ns userspace context switch at explicit yield
/// points (after every operation / every few scanned records — see
/// harness/coop_cc.h). Execution becomes a round-robin interleaving at
/// operation granularity: a discrete-time simulation of parallel hardware.
/// Switches happen only at explicit yield points, so a run is deterministic
/// for a given seed and all schemes see identical interleavings. Commits do
/// contain yields: validation pacing yields every few validation steps while
/// the write set's row locks are held (OccBase::PaceValidation), and a
/// waiter for a row lock, a stable row read, or a node latch yields on every
/// backoff (SpinBackoff), so a holder suspended mid-commit always gets to run
/// and release.
///
/// x86-64 uses a minimal callee-saved-register switch; other architectures
/// fall back to ucontext.
class FiberScheduler {
 public:
  FiberScheduler();
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Add a fiber; may only be called before Run.
  void Spawn(std::function<void()> fn, size_t stack_bytes = 1 << 20);

  /// Run all fibers round-robin on the calling thread until every fiber's
  /// function has returned.
  void Run();

  /// True when the calling code executes inside a fiber of some scheduler.
  static bool InFiber();

  /// Fiber id (spawn order) of the currently running fiber.
  static uint32_t CurrentFiber();

  /// Switch from the current fiber back to the scheduler, which resumes the
  /// next runnable fiber. Undefined outside a fiber.
  static void YieldFiber();

  size_t NumFibers() const { return fibers_.size(); }

 private:
  struct Fiber {
    std::unique_ptr<char[]> stack;
    void* resume_sp = nullptr;
    void* tsan_fiber = nullptr;  ///< TSan fiber context (TSan builds only)
    std::function<void()> fn;
    bool done = false;
  };

  static void Trampoline();
  void SwitchIn(uint32_t index);

  std::vector<std::unique_ptr<Fiber>> fibers_;
  void* scheduler_sp_ = nullptr;
  void* tsan_scheduler_ = nullptr;  ///< TSan context of the scheduling thread
  uint32_t current_ = 0;
  bool running_ = false;
};

/// Yield point usable from any context: inside a fiber it switches fibers
/// (~30ns); on a plain thread it asks the OS scheduler to run someone else.
inline void CooperativeYield() {
  if (FiberScheduler::InFiber()) {
    FiberScheduler::YieldFiber();
  } else {
    std::this_thread::yield();
  }
}

/// One-shot barrier for fibers of a single scheduler: arriving fibers yield
/// until all `n` have arrived. Records the time the last fiber arrived.
class FiberBarrier {
 public:
  explicit FiberBarrier(uint32_t n) : total_(n) {}

  /// Returns true for the last fiber to arrive.
  bool Wait();

  uint64_t completion_nanos() const { return completion_nanos_; }

 private:
  const uint32_t total_;
  uint32_t arrived_ = 0;
  uint64_t completion_nanos_ = 0;
};

}  // namespace rocc
