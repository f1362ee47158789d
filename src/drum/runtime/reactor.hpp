// ReactorRuntime — event-driven execution of many protocol nodes in one
// process (DESIGN.md §8, §13).
//
// The thread-per-node NodeRunner shape matches the paper's deployment (one
// JVM per machine) but caps a single-process experiment at a few dozen nodes:
// each node costs a thread that wakes every poll_interval whether or not
// datagrams arrived. ReactorRuntime inverts that: a net::EventLoop owns
// readiness (epoll for UDP sockets, the wakeup bridge for MemTransport, a
// timerfd-backed deadline queue for round ticks), and node callbacks run only
// when there is work. 512 nodes plus a flooding adversary fit in one Release
// process (examples/swarm.cpp).
//
// The runtime has two shapes, selected by ReactorConfig::shards:
//
//  * shards == 1 — the compat anchor: ONE loop plus an optional worker pool
//    (cfg.workers), exactly the PR-8 runtime. Workers pop nodes from a
//    mutex-guarded queue in small batches and run the DESIGN.md §12 ingress
//    pipeline across them.
//  * shards >= 2 — one EventLoop + thread per shard (DESIGN.md §13). Each
//    shard owns a disjoint set of nodes (id % shards), its own
//    ingress batch, drain scratch, and telemetry registry, so the
//    steady-state hot path allocates nothing and contends on no cross-thread
//    mutex. A dispatch targeting a node homed on another shard crosses over
//    a bounded util::SpscRing (one per ordered shard pair) plus an eventfd
//    nudge when the consumer had gone idle; everything else stays on the
//    node's home thread. `workers` is ignored — each shard drains its own
//    nodes on its loop thread. 0 = auto (hardware_concurrency).
//
// Serialization contract (both shapes): a core::Node stays single-threaded.
// Every entry into a node — drain_ingress(), ingest(), on_round(),
// multicast(), with_node() — happens under that node's own mutex; the
// scheduled/ready/round_due flags ensure at most one thread drains a node at
// a time and no readiness edge is lost. In sharded steady state the home
// thread is the only contender, so the per-node lock is an uncontended CAS —
// it exists to keep multicast()/with_node() safe from any thread. Delivery
// callbacks run on whichever thread is currently driving the node and must
// never re-enter node entry points.
//
// Round ticks are per-node one-shot timers on the node's home loop, re-armed
// from the previous deadline (next = previous + jittered(round)), never from
// "now" — so per-tick dispatch latency does not accumulate into drift. A
// node that falls more than one full round behind resynchronizes to now
// instead of burst-firing the backlog; the "reactor.timer_resyncs" counter
// records each such skip.
//
// Telemetry: each node's registry gains the same "runner.*" metrics
// NodeRunner wrote (ticks, polls, poll_us, tick_interval_us) plus
// "reactor.dispatch_us". The runtime's own registry (loop_registry()) carries
// the "loop.*" metrics from net::EventLoop; in sharded mode every shard's
// loop metrics and its "reactor.shard.*" counters (ring_handoffs, wakeups,
// ring_full_fallbacks, batches) merge into it at stop(), plus the
// "reactor.shards" gauge.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
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
  /// Worker threads executing node callbacks when shards == 1. 0 dispatches
  /// inline on the loop thread — one thread total, the NodeRunner-
  /// compatibility shape. Ignored when the runtime runs sharded.
  std::size_t workers = 0;
  /// Reactor shards: 0 = auto (std::thread::hardware_concurrency), 1 = the
  /// single-loop runtime above, N >= 2 = one loop thread per shard with SPSC
  /// cross-shard handoff. The resolved value is fixed at start().
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
  /// the loop (or shard) threads. Idempotent while running.
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
  /// that node's protocol (and its shard or a worker slot).
  void with_node(NodeId id, const std::function<void(core::Node&)>& fn);

  /// The runtime's own telemetry ("loop.*" counters, timer slop histogram,
  /// "reactor.timer_resyncs", and in sharded mode the merged per-shard
  /// "reactor.shard.*" counters). Read only while stopped.
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

    /// True while the node sits in a run queue, a ring, or a shard-local
    /// ready list, or is being drained — prevents duplicate entries, not
    /// duplicate work (mu does that).
    std::atomic<bool> scheduled{false};
    std::atomic<bool> ready{false};      ///< sockets may have datagrams
    std::atomic<bool> round_due{false};  ///< the round timer fired

    // Round-tick bookkeeping; home loop thread only.
    net::EventLoop::Clock::time_point next_deadline{};
    net::EventLoop::TimerId timer_id = 0;
    /// When the current round tick fired, as µs since the steady-clock
    /// epoch. Atomic because the next tick can (rarely) fire while a worker
    /// is still reading the previous value.
    std::atomic<std::int64_t> fire_us{0};

    // Telemetry; written under mu. Same names NodeRunner used, so merged
    // experiment metrics read identically across runtimes.
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

  /// Admission gate for the MemSocket readiness callbacks of one sharded
  /// run. MemNetwork copies a queue's callback and invokes it outside every
  /// lock, so a sender thread can call it after stop() detached it. Each
  /// callback holds the gate by shared_ptr and enters only while it is
  /// open; stop_sharded() closes it and waits until no call is inside, so
  /// no dispatch() from an earlier run can touch the shards afterwards (or
  /// this runtime at all, once it is destroyed).
  struct CallbackGate {
    std::atomic<bool> open{true};
    std::atomic<int> inside{0};
  };

  net::EventLoop::Clock::duration jittered_round(NodeState& st);
  net::EventLoop& home_loop(NodeState& st);
  void arm_first_tick(NodeState& st);
  void on_round_timer(NodeState& st);  // home loop thread
  /// Routes `st` to whoever runs it: the worker queue / inline path when
  /// shards == 1, the home shard's ready list or inbound ring otherwise.
  void dispatch(NodeState& st);
  /// Inline (workers == 0, shards == 1) path: the single-node batch.
  void run_node(NodeState& st);
  /// The ingress pipeline (DESIGN.md §12): drain every node under its own
  /// lock into `batch`, run the accumulated crypto once with NO node lock
  /// held, then re-lock each drained node to push its verified frames back
  /// in. Round ticks stay self-contained under a single lock hold.
  void run_batch(std::span<NodeState* const> sts,
                 core::ingress::IngressBatch& batch,
                 std::vector<Drained>& scratch);
  void worker_main();
  void install_hooks(NodeState& st);          // shards == 1
  void install_hooks_sharded(NodeState& st);  // shards >= 2

  void start_single() DRUM_REQUIRES(lifecycle_mu_);
  void stop_single() DRUM_REQUIRES(lifecycle_mu_);
  void start_sharded(std::size_t n_shards) DRUM_REQUIRES(lifecycle_mu_);
  void stop_sharded() DRUM_REQUIRES(lifecycle_mu_);

  /// End-of-cycle hook on shard `sh`'s loop thread: drain inbound rings,
  /// run the batch pipeline over everything accumulated, and only declare
  /// the shard idle once a post-drain re-scan of the rings comes up empty.
  void shard_cycle(Shard& sh);
  /// Pops every inbound ring into sh.ready.
  void drain_rings(Shard& sh);

  ReactorConfig cfg_;
  net::EventLoop loop_;  ///< the shards == 1 loop; idle in sharded mode
  obs::MetricsRegistry loop_registry_;
  obs::Counter* m_resyncs_ = nullptr;

  std::deque<NodeState> nodes_;  // deque: stable addresses, non-movable state

  check::Mutex sources_mu_;
  std::unordered_map<net::Socket*, net::EventLoop::SourceId> sources_
      DRUM_GUARDED_BY(sources_mu_);

  check::Mutex queue_mu_;
  /// _any: waits on a check::MutexLock (BasicLockable), which keeps the
  /// queue under the annotated capability.
  std::condition_variable_any queue_cv_;
  std::deque<NodeState*> queue_ DRUM_GUARDED_BY(queue_mu_);
  bool workers_stop_ DRUM_GUARDED_BY(queue_mu_) = false;

  /// Serializes start()/stop() against each other; owns the thread handles.
  check::Mutex lifecycle_mu_;
  std::thread loop_thread_ DRUM_GUARDED_BY(lifecycle_mu_);
  std::vector<std::thread> workers_ DRUM_GUARDED_BY(lifecycle_mu_);

  /// Shards of the current run; built by start_sharded(), torn down by
  /// stop_sharded(). unique_ptr: EventLoop is neither movable nor copyable.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The current sharded run's callback gate; replaced by start_sharded().
  std::shared_ptr<CallbackGate> gate_;

  /// Inline-path scratch (shards == 1, workers == 0); loop thread only.
  core::ingress::IngressBatch inline_batch_;
  std::vector<Drained> inline_scratch_;

  /// Mirror of `!workers_.empty()`, readable from loop/worker threads
  /// without lifecycle_mu_: dispatch() keys inline-vs-queued execution off
  /// it. Written in start() before any event can fire.
  std::atomic<bool> inline_dispatch_{true};
  /// True while the current run is sharded; written under lifecycle_mu_
  /// before any event can fire, read lock-free by dispatch().
  std::atomic<bool> sharded_{false};
  std::atomic<std::size_t> n_shards_{0};
  std::atomic<bool> running_{false};
};

}  // namespace drum::runtime
