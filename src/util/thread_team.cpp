#include "src/util/thread_team.hpp"

#include <chrono>

namespace tsc::util {

namespace {

// How long a waiting thread spins before it sleeps in the futex wait. The
// update's longest gap between two phases of one thread is a minibatch's
// serial tail (loss, gradient clip, row packing: ~0.2 ms on the 6x6
// workload), so a waiting thread stays hot across it; parking ends the
// spin at once.
constexpr std::chrono::microseconds kSpinBudget{1000};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Spins while `a` holds `old` and `keep_spinning()` allows, for at most
// kSpinBudget; returns true when the value changed during the spin. After
// the first few hundred polls each poll also yields, so on an
// oversubscribed host a spinning thread hands its core to the thread it is
// waiting for instead of burning its time slice.
template <typename KeepSpinning>
bool spin_while_equal(const std::atomic<std::uint32_t>& a, std::uint32_t old,
                      KeepSpinning keep_spinning) {
  constexpr std::uint32_t kPausePolls = 256;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t k = 1;; ++k) {
    if (a.load(std::memory_order_acquire) != old) return true;
    if (!keep_spinning()) return false;
    if (k < kPausePolls) {
      cpu_relax();
      continue;
    }
    std::this_thread::yield();
    if ((k & 15) == 0 && std::chrono::steady_clock::now() - start > kSpinBudget)
      return false;
  }
}

}  // namespace

void Crew::dispatch(void (*fn)(void*, std::size_t), void* ctx) {
  pending_.store(static_cast<std::uint32_t>(size_ - 1), std::memory_order_relaxed);
  for (std::size_t r = 1; r < size_; ++r)
    team_->post(first_ + r, fn, ctx, r, &pending_);
  std::exception_ptr error;
  try {
    fn(ctx, 0);
  } catch (...) {
    error = std::current_exception();
  }
  team_->join(pending_);
  // Clear every rank's slot, then rethrow the lowest rank's exception.
  for (std::size_t r = 1; r < size_; ++r) {
    try {
      team_->rethrow_helper_error(first_ + r);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

ThreadTeam::ThreadTeam(std::size_t threads) {
  const std::size_t n = threads == 0 ? 1 : threads;
  mailboxes_.resize(n);
  for (std::size_t t = 1; t < n; ++t) mailboxes_[t] = std::make_unique<Mailbox>();
  const std::size_t first_size = (n + 1) / 2;
  all_.team_ = first_.team_ = second_.team_ = this;
  all_.size_ = n;
  first_.size_ = first_size;
  second_.first_ = first_size;
  second_.size_ = n - first_size;
  helpers_.reserve(n - 1);
  for (std::size_t t = 1; t < n; ++t)
    helpers_.emplace_back([this, t] { helper_loop(t); });
}

ThreadTeam::~ThreadTeam() {
  stopping_.store(true, std::memory_order_release);
  for (std::size_t t = 1; t < mailboxes_.size(); ++t) {
    mailboxes_[t]->seq.fetch_add(1, std::memory_order_release);
    mailboxes_[t]->seq.notify_one();
  }
  for (std::thread& helper : helpers_) helper.join();
}

void ThreadTeam::post(std::size_t thread, void (*fn)(void*, std::size_t),
                      void* ctx, std::size_t rank,
                      std::atomic<std::uint32_t>* done) {
  Mailbox& box = *mailboxes_[thread];
  box.fn = fn;
  box.ctx = ctx;
  box.rank = rank;
  box.done = done;
  if (parked_.load(std::memory_order_relaxed))
    parked_.store(false, std::memory_order_relaxed);
  box.seq.fetch_add(1, std::memory_order_release);
  box.seq.notify_one();
}

void ThreadTeam::join(std::atomic<std::uint32_t>& pending) {
  for (std::uint32_t left; (left = pending.load(std::memory_order_acquire)) != 0;)
    if (!spin_while_equal(pending, left, [] { return true; }))
      pending.wait(left, std::memory_order_acquire);
}

void ThreadTeam::rethrow_helper_error(std::size_t thread) {
  Mailbox& box = *mailboxes_[thread];
  if (!box.error) return;
  std::exception_ptr error = std::move(box.error);
  box.error = nullptr;
  std::rethrow_exception(error);
}

void ThreadTeam::park() {
  parked_.store(true, std::memory_order_release);
  while (sleeping_.load(std::memory_order_acquire) != helpers_.size()) cpu_relax();
}

void ThreadTeam::helper_loop(std::size_t thread) {
  Mailbox& box = *mailboxes_[thread];
  std::uint32_t seen = 0;
  for (;;) {
    while (box.seq.load(std::memory_order_acquire) == seen) {
      if (spin_while_equal(box.seq, seen, [this] {
            return !parked_.load(std::memory_order_relaxed);
          }))
        break;
      sleeping_.fetch_add(1, std::memory_order_acq_rel);
      box.seq.wait(seen, std::memory_order_acquire);
      sleeping_.fetch_sub(1, std::memory_order_acq_rel);
    }
    seen = box.seq.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_acquire)) return;
    std::atomic<std::uint32_t>* done = box.done;
    try {
      box.fn(box.ctx, box.rank);
    } catch (...) {
      box.error = std::current_exception();
    }
    if (done->fetch_sub(1, std::memory_order_acq_rel) == 1) done->notify_one();
  }
}

}  // namespace tsc::util
