// A persistent team of threads for fine-grained fork/join phases: the PPO
// update forks a phase per layer kernel (~0.05-0.5 ms of work each), where a
// ThreadPool round trip (packaged_task + future + condvar, heap-allocated
// per submit) costs as much as the work.
//
// A team of N threads is the calling thread (rank 0, the owner) plus N - 1
// helpers, each with a one-slot mailbox. Posting writes the job's function
// pointer, context pointer and rank into the mailbox and bumps its sequence
// number; the helper runs the job and counts down the poster's join
// counter. Both sides wait spin-then-futex (a bounded spin on the atomic,
// then std::atomic::wait), so a join costs a few cache-line transfers while
// the team is busy and nothing while it sleeps. Jobs are type-erased
// through a plain function pointer to a callable on the poster's stack: the
// steady state makes no heap allocation.
//
// Crews. A crew is a contiguous run of the team's threads; its first thread
// is its leader, the only thread that calls its run(). The team has three:
//   * all()      — every thread, led by the owner;
//   * first()    — threads [0, ceil(N/2)), led by the owner;
//   * second()   — threads [ceil(N/2), N), led by a helper (empty at N = 1).
// run_split(a, b) runs a(first()) on the owner and b(second()) on the
// second crew's leader, which forks b's phases onto its own crew, so the two
// crews work side by side (N = 4: 2 + 2; N = 2: 1 + 1; N = 1: a then b on
// the owner).
//
// Parking. Helpers spin only while the team is active. park() makes every
// helper go to sleep in the futex wait and returns once they all sleep; the
// next post wakes them and unparks the team. Owners park the team whenever
// they stop forking for a while (the trainer, when an update returns), so
// no thread spins through rollout collection, evaluation or control.
//
// Exceptions. A job's exception is caught on its thread, stored in its
// mailbox and rethrown by the poster after the join, so run() and
// run_split() return only once every thread has finished: a throwing rank
// never leaves another rank running on the caller's frame.
//
// Not thread-safe: one owner drives the team, and each crew's run() is
// called only by its leader.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace tsc::util {

class ThreadTeam;

/// A contiguous run of a team's threads that runs phases together.
class Crew {
 public:
  std::size_t size() const { return size_; }

  /// Runs fn(rank) for every rank in [0, size()): rank 0 on the calling
  /// thread (the crew's leader), rank r on the crew's r-th thread. Returns
  /// once every rank has finished, then rethrows the exception of the
  /// lowest rank that threw, if any.
  template <typename F>
  void run(F&& fn) {
    if (size_ <= 1) {
      fn(std::size_t{0});
      return;
    }
    using Fn = std::remove_reference_t<F>;
    dispatch(&call<Fn>, const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  friend class ThreadTeam;

  template <typename Fn>
  static void call(void* fn, std::size_t rank) {
    (*static_cast<Fn*>(fn))(rank);
  }
  void dispatch(void (*fn)(void*, std::size_t), void* ctx);

  ThreadTeam* team_ = nullptr;
  std::size_t first_ = 0;
  std::size_t size_ = 0;
  /// Ranks of the current phase still running on other threads.
  alignas(64) std::atomic<std::uint32_t> pending_{0};
};

class ThreadTeam {
 public:
  /// A team of `threads` threads, the constructing thread included (so it
  /// starts threads - 1 helpers; at least one thread).
  explicit ThreadTeam(std::size_t threads);
  /// Wakes and joins every helper. Call only while no phase runs.
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  std::size_t size() const { return mailboxes_.size(); }

  Crew& all() { return all_; }
  Crew& first() { return first_; }
  Crew& second() { return second_; }

  /// Runs a(first()) on the calling thread and b(second()) on the second
  /// crew's leader, and returns once both have finished; at one thread, a
  /// then b on the calling thread (b skipped if a throws). Rethrows a's
  /// exception, else b's.
  template <typename A, typename B>
  void run_split(A&& a, B&& b) {
    if (second_.size_ == 0) {
      a(first_);
      b(first_);
      return;
    }
    using Fb = std::remove_reference_t<B>;
    auto run_b = [](void* fn, std::size_t) {
      ThreadTeam* self = static_cast<Split<Fb>*>(fn)->team;
      (*static_cast<Split<Fb>*>(fn)->fn)(self->second_);
    };
    Split<Fb> split{this, &b};
    split_pending_.store(1, std::memory_order_relaxed);
    post(second_.first_, run_b, &split, 0, &split_pending_);
    std::exception_ptr error;
    try {
      a(first_);
    } catch (...) {
      error = std::current_exception();
    }
    join(split_pending_);
    try {
      rethrow_helper_error(second_.first_);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    if (error) std::rethrow_exception(error);
  }

  /// Puts every helper to sleep in the futex wait and returns once all of
  /// them sleep. The next phase wakes them.
  void park();
  /// True from park() until the next phase is posted.
  bool parked() const { return parked_.load(std::memory_order_acquire); }
  /// Helpers currently asleep in the futex wait (size() - 1 after park()).
  std::size_t sleeping_helpers() const {
    return sleeping_.load(std::memory_order_acquire);
  }

 private:
  friend class Crew;

  template <typename Fb>
  struct Split {
    ThreadTeam* team;
    Fb* fn;
  };

  /// One helper's mailbox, on its own cache line.
  struct alignas(64) Mailbox {
    std::atomic<std::uint32_t> seq{0};
    void (*fn)(void*, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::size_t rank = 0;
    std::atomic<std::uint32_t>* done = nullptr;
    std::exception_ptr error;
  };

  /// Hands job (fn, ctx, rank) to team thread `thread` (>= 1); it counts
  /// `done` down when finished (the caller sets `done` beforehand).
  void post(std::size_t thread, void (*fn)(void*, std::size_t), void* ctx,
            std::size_t rank, std::atomic<std::uint32_t>* done);
  /// Waits until `pending` reaches zero (spin, then futex).
  void join(std::atomic<std::uint32_t>& pending);
  /// Rethrows (and clears) the exception team thread `thread` stored.
  void rethrow_helper_error(std::size_t thread);
  void helper_loop(std::size_t thread);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  ///< [0] unused (owner)
  std::atomic<bool> parked_{true};
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> sleeping_{0};
  alignas(64) std::atomic<std::uint32_t> split_pending_{0};
  Crew all_, first_, second_;
  std::vector<std::thread> helpers_;  ///< declared last: started after the rest
};

}  // namespace tsc::util
