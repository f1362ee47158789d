// drum::net::EventLoop — the readiness reactor under the real-time runtime
// (DESIGN.md §8).
//
// One loop multiplexes three event kinds:
//  * fd sockets (UdpSocket): registered with epoll, edge-triggered — each
//    arriving datagram re-arms the event, so a budget-exhausted node that
//    stops reading does not spin the loop. fd-less sockets (MemSocket) are
//    not registered here: they signal readiness through their own
//    set_ready_callback(), which the runtime wires to its dispatch;
//  * timers: a deadline-ordered queue backed by one timerfd armed to the
//    earliest deadline (absolute CLOCK_MONOTONIC, so no drift accumulates);
//  * posted callbacks and wake() nudges, through one eventfd.
//
// Threading contract: run() executes on exactly one thread and all event
// callbacks are invoked there, serially. Registration (add_socket /
// add_timer / cancel_timer / post / stop) is thread-safe and may be called
// from callbacks. Callbacks are invoked with no loop lock held; a callback
// may fire once after its source was removed (the event was already in
// flight) — callers' callback targets must tolerate that or outlive the
// loop. The locking discipline is compiler-enforced: mu_ is a
// check::Mutex capability and every field it protects carries
// DRUM_GUARDED_BY (see drum/check/annotations.hpp, DESIGN.md §11).
//
// Telemetry (set_registry, written by the loop thread only): "loop.wakeups",
// "loop.fd_events", "loop.posts", "loop.timers_fired" counters and the "loop.timer_slop_us" histogram (how late each timer
// fired vs its deadline).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "drum/check/annotations.hpp"
#include "drum/net/transport.hpp"
#include "drum/obs/metrics.hpp"

namespace drum::net {

class EventLoop {
 public:
  using Callback = std::function<void()>;
  using SourceId = std::uint64_t;
  using TimerId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers an fd socket (native_handle() >= 0) for readiness dispatch:
  /// `on_ready` runs on the loop thread whenever the socket (may) have
  /// datagrams to read, once right after registration included (catch-up
  /// for datagrams that arrived earlier). Spurious invocations are
  /// possible; the callback drains with recv()/recv_batch() until empty.
  /// The socket must stay alive until remove_socket().
  SourceId add_socket(Socket& sock, Callback on_ready);
  /// Unregisters; the socket may be destroyed afterwards. Idempotent.
  void remove_socket(SourceId id);

  /// One-shot timer at an absolute deadline; re-arm from the callback for
  /// periodic behavior (compute the next deadline from the previous one, not
  /// from now — that is what keeps tick intervals drift-free).
  TimerId add_timer(Clock::time_point deadline, Callback fn);
  TimerId add_timer_in(Clock::duration delay, Callback fn) {
    return add_timer(Clock::now() + delay, std::move(fn));
  }
  /// Best-effort: a timer already being dispatched is not recalled.
  void cancel_timer(TimerId id);

  /// Runs `fn` on the loop thread at the next iteration.
  void post(Callback fn);

  /// Forces the loop through one more iteration (epoll_wait returns even if
  /// no fd is ready). Thread-safe and async-signal-cheap: one eventfd write.
  /// The sharded reactor uses this to nudge a peer shard after pushing onto
  /// its SPSC ring — the data travels through the ring, only the wakeup
  /// travels through the loop.
  void wake();

  /// Installs a callback the loop thread invokes at the END of every
  /// iteration, after socket readiness, posts, and timers have all been
  /// dispatched. Call only while the loop is not running (same rule as
  /// set_registry); pass nullptr to detach. The sharded reactor drains its
  /// shard-local ready list and inbound rings here, so per-cycle work is
  /// batched across everything the iteration produced.
  void set_cycle_callback(Callback fn);

  /// Blocks, dispatching events until stop(). Call from exactly one thread.
  /// A stop() issued before run() is entered still takes effect (the request
  /// is sticky): run() returns immediately. Reuse after a stop requires
  /// reset().
  void run();
  /// Thread-safe; run() returns after the current iteration. Sticky: also
  /// stops a run() that has not started yet.
  void stop();
  /// Clears a prior stop request so the loop can run() again. Call only
  /// when no run() is active and no concurrent stop() can target the
  /// upcoming run (e.g. under the owner's lifecycle lock, before spawning
  /// the loop thread).
  void reset() { stop_requested_.store(false); }
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Attaches loop telemetry (nullptr detaches). Call before run(); the
  /// registry must outlive the loop and is written by the loop thread only.
  void set_registry(obs::MetricsRegistry* registry);

 private:
  struct Source {
    int fd = -1;
    Callback on_ready;
  };

  void arm_timerfd() DRUM_REQUIRES(mu_);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;   ///< eventfd: posts, wake(), stop
  int timer_fd_ = -1;  ///< timerfd armed to the earliest deadline

  check::Mutex mu_;
  std::uint64_t next_id_ DRUM_GUARDED_BY(mu_) = 2;  // 0/1 = fd sentinels
  std::unordered_map<SourceId, Source> sources_ DRUM_GUARDED_BY(mu_);
  /// Sources registered since the last iteration: each gets one catch-up
  /// dispatch, because edge-triggered epoll never reports datagrams that
  /// arrived before registration.
  std::vector<SourceId> catch_up_ DRUM_GUARDED_BY(mu_);
  std::vector<Callback> posts_ DRUM_GUARDED_BY(mu_);
  struct Timer {
    TimerId id;
    Callback fn;
  };
  std::multimap<Clock::time_point, Timer> timers_ DRUM_GUARDED_BY(mu_);
  std::unordered_map<TimerId, std::multimap<Clock::time_point, Timer>::iterator>
      timer_index_ DRUM_GUARDED_BY(mu_);
  Clock::time_point armed_deadline_ DRUM_GUARDED_BY(mu_) =
      Clock::time_point::max();

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  /// Set before run(), invoked by the loop thread only (like registry_).
  Callback cycle_cb_;

  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* m_wakeups_ = nullptr;
  obs::Counter* m_fd_events_ = nullptr;
  obs::Counter* m_posts_ = nullptr;
  obs::Counter* m_timers_fired_ = nullptr;
  obs::Histogram* m_timer_slop_us_ = nullptr;
};

}  // namespace drum::net
