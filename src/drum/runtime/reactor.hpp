// ReactorRuntime — event-driven execution of many protocol nodes in one
// process (DESIGN.md §8, §13).
//
// A node runs only when it has work: a net::EventLoop owns readiness (epoll
// for UDP sockets, a timerfd-backed deadline queue for round ticks) and
// MemTransport sockets signal readiness straight into dispatch(). 512 nodes
// plus a flooding adversary fit in one Release process (examples/swarm.cpp).
//
// One execution shape: ReactorConfig::shards event-loop threads, each a
// shard owning a disjoint set of nodes (id % shards) with its own ingress
// batch, drain scratch and telemetry registry, so the steady-state hot path
// allocates nothing and contends on no cross-thread mutex. shards == 1 is
// one such shard hosting every node on one thread; 0 = one shard per
// hardware core. A dispatch targeting a node homed on another shard crosses
// over a bounded util::SpscRing (one per ordered shard pair) plus an eventfd
// nudge when the consumer had gone idle; dispatches from threads outside the
// runtime (application threads, another runtime's shards) go through the
// home loop's post queue.
//
// Serialization contract: a core::Node stays single-threaded. Every entry
// into a node — drain_ingress(), ingest(), on_round(), multicast(),
// with_node() — happens under that node's own mutex; the
// scheduled/ready/round_due flags ensure a node sits in at most one ready
// list or ring at a time and no readiness edge is lost. The home thread is
// the only steady-state contender, so the per-node lock is an uncontended
// CAS — it exists to keep multicast()/with_node() safe from any thread.
// Delivery callbacks run on the node's home thread and must never re-enter
// node entry points.
//
// Round ticks are per-node one-shot timers on the node's home loop, re-armed
// from the previous deadline (next = previous + jittered(round)), never from
// "now" — so per-tick dispatch latency does not accumulate into drift. A
// node that falls more than one full round behind resynchronizes to now
// instead of burst-firing the backlog; the "reactor.timer_resyncs" counter
// records each such skip.
//
// Telemetry: each node's registry gains "runner.*" metrics (ticks, polls,
// poll_us, tick_interval_us) plus "reactor.dispatch_us". The runtime's own
// registry (loop_registry()) receives, at stop(), every shard's "loop.*"
// metrics from net::EventLoop and its "reactor.shard.*" counters
// (ring_handoffs, wakeups, ring_full_fallbacks, batches), plus the
// "reactor.shards" gauge.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "drum/check/annotations.hpp"
#include "drum/core/node.hpp"
#include "drum/net/event_loop.hpp"
#include "drum/util/rng.hpp"
#include "drum/util/spsc_ring.hpp"

namespace drum::runtime {

struct ReactorConfig {
  /// Mean local round duration (paper: ~1 s).
  std::chrono::milliseconds round{1000};
  /// Uniform jitter as a fraction of `round` (+/-): keeps rounds
  /// unsynchronized across nodes (paper §4, §8).
  double jitter = 0.2;
  /// Event-loop threads, one per shard: 0 = auto
  /// (std::thread::hardware_concurrency), N >= 1 = N shards. The resolved
  /// value is fixed at start().
  std::size_t shards = 0;
  /// Record "runner.*" / "reactor.*" timing into each node's registry.
  bool instrument = true;
};

class ReactorRuntime {
 public:
  using NodeId = std::size_t;

  explicit ReactorRuntime(ReactorConfig cfg);
  /// Stops and joins if still running.
  ~ReactorRuntime();

  ReactorRuntime(const ReactorRuntime&) = delete;
  ReactorRuntime& operator=(const ReactorRuntime&) = delete;

  /// Registers a node; only legal while stopped. `node` must outlive the
  /// runtime. `seed` feeds this node's tick-jitter RNG. Returns the id used
  /// by multicast()/with_node().
  NodeId add_node(core::Node& node, std::uint64_t seed);

  /// Installs socket hooks, arms every node's first round tick, and launches
  /// the shard threads. Idempotent while running.
  void start();
  /// Idempotent; blocks until all threads joined and no readiness callback
  /// of this run is still dispatching, then detaches the socket hooks so
  /// nodes are plain single-threaded objects again. start() may be called
  /// again afterwards.
  void stop();
  [[nodiscard]] bool running() const { return running_.load(); }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Shards the last start() resolved to (0 before the first start).
  [[nodiscard]] std::size_t shard_count() const {
    return n_shards_.load(std::memory_order_relaxed);
  }

  /// Thread-safe multicast through node `id`.
  core::MessageId multicast(NodeId id, util::ByteSpan payload);

  /// Runs `fn` with exclusive access to node `id`. Keep it short — it blocks
  /// that node's protocol and, on its home shard, every node it hosts.
  void with_node(NodeId id, const std::function<void(core::Node&)>& fn);

  /// The runtime's own telemetry: every past run's merged shard registries
  /// ("loop.*" counters, timer slop histogram, "reactor.timer_resyncs",
  /// "reactor.shard.*") and the "reactor.shards" gauge. Read only while
  /// stopped.
  [[nodiscard]] const obs::MetricsRegistry& loop_registry() const {
    return loop_registry_;
  }

 private:
  struct NodeState {
    /// Serializes all entry into the node — the lock that implements the
    /// "a core::Node stays single-threaded" contract above.
    check::Mutex mu;
    core::Node* node DRUM_GUARDED_BY(mu) = nullptr;
    util::Rng rng;  ///< tick jitter; home loop thread only (after start)

    /// Which shard owns this node (id % shards). Written at start(), read
    /// by dispatch() from any thread — the start/stop lifecycle provides the
    /// ordering.
    std::size_t shard = 0;

    /// True while the node sits in a ring, a post queue, or its shard's
    /// ready list, or is being drained — prevents duplicate entries, not
    /// duplicate work (mu does that).
    std::atomic<bool> scheduled{false};
    std::atomic<bool> ready{false};      ///< sockets may have datagrams
    std::atomic<bool> round_due{false};  ///< the round timer fired

    // Round-tick bookkeeping; home loop thread only.
    net::EventLoop::Clock::time_point next_deadline{};
    net::EventLoop::TimerId timer_id = 0;
    /// When the current round tick fired, as µs since the steady-clock
    /// epoch.
    std::int64_t fire_us = 0;

    // Telemetry; written under mu.
    obs::Counter* m_ticks DRUM_GUARDED_BY(mu) = nullptr;
    obs::Counter* m_polls DRUM_GUARDED_BY(mu) = nullptr;
    obs::Histogram* m_poll_us DRUM_GUARDED_BY(mu) = nullptr;
    obs::Histogram* m_tick_interval_us DRUM_GUARDED_BY(mu) = nullptr;
    obs::Histogram* m_dispatch_us DRUM_GUARDED_BY(mu) = nullptr;
    net::EventLoop::Clock::time_point last_tick DRUM_GUARDED_BY(mu){};

    explicit NodeState(core::Node& n, std::uint64_t seed)
        : node(&n), rng(seed) {}
  };

  /// One drained node awaiting its post-verify ingest (run_batch phase 3).
  struct Drained {
    NodeState* st = nullptr;
    core::Node* node = nullptr;  // captured under st->mu during the drain
    std::int64_t drain_us = 0;
  };

  /// Everything one shard thread owns (DESIGN.md §13). Only `inbound`,
  /// `idle`, and `sources` are ever touched by another thread; the rest is
  /// loop-thread confined after start().
  struct Shard {
    std::size_t index = 0;
    net::EventLoop loop;
    obs::MetricsRegistry registry;

    // drum-lint: shard-local
    /// Nodes to drain this cycle; fed by same-shard dispatches and by
    /// drain_rings(). Swapped into `proc` before processing so run_batch's
    /// own dispatches (a node's sends waking a same-shard peer) append to a
    /// stable vector.
    std::vector<NodeState*> ready;
    std::vector<NodeState*> proc;
    std::vector<Drained> drain_scratch;
    core::ingress::IngressBatch batch;
    // drum-lint: shard-local end

    /// inbound[p] carries handoffs produced by shard p (null when
    /// p == index). Capacity covers every node homed here, so a push only
    /// fails if a stale duplicate race transiently overfills — the producer
    /// then falls back to loop.post().
    std::vector<std::unique_ptr<util::SpscRing<NodeState*>>> inbound;
    /// True while the loop thread is (about to be) blocked in epoll_wait
    /// with all rings drained. A producer that flips true -> false owes the
    /// shard one eventfd nudge; see dispatch() for the fence protocol.
    std::atomic<bool> idle{true};

    /// Socket registrations for this shard's nodes. Hook callbacks usually
    /// fire on the home loop thread (per-round port rotation), but
    /// with_node() can rotate from any thread, hence the lock.
    check::Mutex sources_mu;
    std::unordered_map<net::Socket*, net::EventLoop::SourceId> sources
        DRUM_GUARDED_BY(sources_mu);

    std::thread thread;

    // Telemetry; shard thread only (producer-side counters live in the
    // *producing* shard's registry — registries are single-thread confined).
    obs::Counter* m_handoffs = nullptr;   ///< pushes onto peer rings
    obs::Counter* m_wakes = nullptr;      ///< eventfd nudges sent to peers
    obs::Counter* m_ring_full = nullptr;  ///< full-ring fallbacks to post()
    obs::Counter* m_batches = nullptr;    ///< drain/verify/ingest passes
    obs::Counter* m_resyncs = nullptr;    ///< reactor.timer_resyncs
  };

  /// Admission gate for the MemSocket readiness callbacks of one run.
  /// MemNetwork copies a queue's callback and invokes it outside every
  /// lock, so a sender thread can call it after stop() detached it. Each
  /// callback holds the gate by shared_ptr and enters only while it is
  /// open; stop() closes it and waits until no call is inside, so no
  /// dispatch() from an earlier run can touch the shards afterwards (or
  /// this runtime at all, once it is destroyed).
  struct CallbackGate {
    std::atomic<bool> open{true};
    std::atomic<int> inside{0};
  };

  net::EventLoop::Clock::duration jittered_round(NodeState& st);
  void arm_first_tick(NodeState& st);
  void on_round_timer(NodeState& st);  // home loop thread
  /// Routes `st` to its home shard: a thread-local push onto the ready list
  /// from the home thread, the inbound ring from a peer shard, the home
  /// loop's post queue from anywhere else.
  void dispatch(NodeState& st);
  /// The ingress pipeline (DESIGN.md §12) over `sts`, all homed on `sh`:
  /// drain every node under its own lock into the shard's batch, run the
  /// accumulated crypto once with NO node lock held, then re-lock each
  /// drained node to push its verified frames back in. Round ticks stay
  /// self-contained under a single lock hold.
  void run_batch(Shard& sh, std::span<NodeState* const> sts);
  void install_hooks(NodeState& st) DRUM_REQUIRES(lifecycle_mu_);

  /// End-of-cycle hook on shard `sh`'s loop thread: drain inbound rings,
  /// run the batch pipeline over everything accumulated, and only declare
  /// the shard idle once a post-drain re-scan of the rings comes up empty.
  void shard_cycle(Shard& sh);
  /// Pops every inbound ring into sh.ready.
  void drain_rings(Shard& sh);

  ReactorConfig cfg_;
  obs::MetricsRegistry loop_registry_;

  std::deque<NodeState> nodes_;  // deque: stable addresses, non-movable state

  /// Serializes start()/stop() against each other.
  check::Mutex lifecycle_mu_;

  /// Shards of the current run; built by start(), torn down by stop().
  /// unique_ptr: EventLoop is neither movable nor copyable.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The current run's callback gate; replaced by start().
  std::shared_ptr<CallbackGate> gate_ DRUM_GUARDED_BY(lifecycle_mu_);

  std::atomic<std::size_t> n_shards_{0};
  std::atomic<bool> running_{false};
};

}  // namespace drum::runtime
