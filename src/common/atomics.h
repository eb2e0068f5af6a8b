// Documented lock-free atomics for the few sites that intentionally live
// outside the capability system (common/thread_annotations.h): monotonic
// statistics counters and advisory flags, where every interleaving of
// relaxed loads and stores is a correct outcome and a mutex would put a
// serialisation point on a hot path.
//
// RelaxedAtomic pins the memory order to `relaxed` at the type level, which
// is the whole point: a bare std::atomic invites ad-hoc per-call orderings,
// and a reviewer can't tell a deliberate relaxed counter from a forgotten
// acquire/release pair. A RelaxedAtomic declares "no cross-thread ordering
// is implied by this variable" — anything needing publication order
// (handing an object to another thread) must go through a Mutex or a
// release-ordered primitive instead, and should say why in a comment.
// PublishingCounter is that primitive for counters: the same pinning, with
// release increments and acquire reads.
#ifndef OMEGA_COMMON_ATOMICS_H_
#define OMEGA_COMMON_ATOMICS_H_

#include <atomic>
#include <type_traits>

namespace omega {

/// Lock-free scalar with all operations pinned to std::memory_order_relaxed.
/// Safe concurrent use requires that readers tolerate any stale value —
/// counters, generation numbers, cancellation flags. Not a publication
/// mechanism: nothing written before a Store() is guaranteed visible to a
/// thread that observes it.
template <typename T>
class RelaxedAtomic {
  static_assert(std::is_trivially_copyable_v<T>,
                "RelaxedAtomic requires a trivially copyable scalar");
  // The "lock-free" in the class contract is load-bearing: if std::atomic<T>
  // fell back to a hidden lock (oversized T, exotic target), the sites using
  // this type would silently reintroduce the serialisation they exist to
  // avoid — fail the build instead.
  static_assert(std::atomic<T>::is_always_lock_free,
                "RelaxedAtomic<T> must be lock-free on every supported "
                "target; use a Mutex-guarded field for wider state");

 public:
  constexpr RelaxedAtomic() = default;
  explicit constexpr RelaxedAtomic(T value) : value_(value) {}

  RelaxedAtomic(const RelaxedAtomic&) = delete;
  RelaxedAtomic& operator=(const RelaxedAtomic&) = delete;

  T Load() const { return value_.load(std::memory_order_relaxed); }
  void Store(T value) { value_.store(value, std::memory_order_relaxed); }

  /// Returns the previous value. Only instantiable for integral T.
  T FetchAdd(T delta) {
    return value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Returns the previous value.
  T Exchange(T value) {
    return value_.exchange(value, std::memory_order_relaxed);
  }

  /// Raises the value to at least `value` (a high-water mark); returns the
  /// previous value. Concurrent raises keep the largest.
  T FetchMax(T value) {
    T current = value_.load(std::memory_order_relaxed);
    while (current < value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
    return current;
  }

 private:
  std::atomic<T> value_{};
};

/// Lock-free counter whose increments publish: FetchAdd is a release
/// read-modify-write and Load an acquire load. A thread that loads a value
/// some FetchAdd produced also sees everything the adding thread did before
/// that add — and since read-modify-writes continue a release sequence,
/// later adds by other threads do not break the pairing. This is the
/// ordering a reader needs to infer one event from another: metrics
/// Counters use it so QueryService::stats() can read completions before
/// admissions and never see a completion without its admission. On x86
/// both operations compile to the same instructions as their relaxed forms.
template <typename T>
class PublishingCounter {
  static_assert(std::is_integral_v<T>, "PublishingCounter counts integers");
  static_assert(std::atomic<T>::is_always_lock_free,
                "PublishingCounter<T> must be lock-free on every supported "
                "target");

 public:
  constexpr PublishingCounter() = default;

  PublishingCounter(const PublishingCounter&) = delete;
  PublishingCounter& operator=(const PublishingCounter&) = delete;

  T Load() const { return value_.load(std::memory_order_acquire); }

  /// Returns the previous value.
  T FetchAdd(T delta) {
    return value_.fetch_add(delta, std::memory_order_release);
  }

 private:
  std::atomic<T> value_{};
};

}  // namespace omega

#endif  // OMEGA_COMMON_ATOMICS_H_
