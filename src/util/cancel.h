// Cooperative cancellation for long-running searches.
//
// A CancelToken carries an optional wall-clock deadline and a manual stop
// flag. Exponential code paths (brute_force, the analysis budget search,
// the DWT and k-ary DPs) poll cancelled() at safe points and unwind
// gracefully — returning a timed-out/absent result instead of running
// unboundedly. Copies share the stop flag, so a token handed to a worker
// can be cancelled from the owner. Polling is cheap (an atomic load; the
// clock is read only when a deadline is set), but callers in tight loops
// should still throttle checks to every few hundred iterations
// (CancelPoller below does that for the DPs).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

namespace wrbpg {

class CancelToken {
 public:
  CancelToken() : stop_(std::make_shared<std::atomic<bool>>(false)) {}

  // A fresh token (its own stop flag, no deadline) that also reads as
  // cancelled whenever `parent` does; cancelling it leaves `parent` alone.
  // `parent` may be null and must outlive this token and its copies.
  explicit CancelToken(const CancelToken* parent) : CancelToken() {
    parent_ = parent;
  }

  static CancelToken WithDeadline(std::chrono::nanoseconds budget) {
    CancelToken token;
    token.has_deadline_ = true;
    token.deadline_ = std::chrono::steady_clock::now() + budget;
    return token;
  }
  static CancelToken WithDeadlineMs(double ms) {
    return WithDeadline(std::chrono::nanoseconds(
        static_cast<std::chrono::nanoseconds::rep>(ms * 1e6)));
  }

  // Requests cancellation; every copy of this token observes it.
  void Cancel() const { stop_->store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    if (stop_->load(std::memory_order_relaxed)) return true;
    if (parent_ != nullptr && parent_->cancelled()) return true;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      stop_->store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // Time left before the deadline (never negative); nullopt when the token
  // has no deadline. Used to size per-stage budgets in fallback chains.
  std::optional<std::chrono::nanoseconds> remaining() const {
    if (!has_deadline_) return std::nullopt;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline_) return std::chrono::nanoseconds{0};
    return deadline_ - now;
  }

 private:
  std::shared_ptr<std::atomic<bool>> stop_;
  const CancelToken* parent_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

// A throttled, latching view of a token for recursions whose steps are
// too fine to read the clock on each one (the DPs' memo misses: a read on
// every miss cost about 40% of Algorithm 1 on dwt(4096,12)). cancelled()
// polls the token on one call in kPeriod and remembers a cancellation;
// latched() reports what was seen without polling. A null token never
// cancels.
class CancelPoller {
 public:
  explicit CancelPoller(const CancelToken* token = nullptr) : token_(token) {}

  bool cancelled() {
    if (token_ != nullptr && !latched_ && calls_++ % kPeriod == 0) {
      latched_ = token_->cancelled();
    }
    return latched_;
  }
  bool latched() const { return latched_; }

 private:
  static constexpr std::uint32_t kPeriod = 64;
  const CancelToken* token_;
  std::uint32_t calls_ = 0;
  bool latched_ = false;
};

}  // namespace wrbpg
