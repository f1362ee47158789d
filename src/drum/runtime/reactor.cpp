#include "drum/runtime/reactor.hpp"

#include <atomic>

#include "drum/check/check.hpp"

namespace drum::runtime {

using Clock = net::EventLoop::Clock;
using std::chrono::duration_cast;
using std::chrono::microseconds;

namespace {

/// Nodes popped per queue critical section (shards == 1 worker path).
/// Bounding the batch keeps other workers fed under load while still giving
/// verify() a cross-node window: 8 nodes × a few frames each already fills
/// the Ed25519 batch ladder.
constexpr std::size_t kWorkerBatch = 8;

/// Nodes per drain/verify/ingest pass on a shard thread. Wider than the
/// worker batch (there are no co-workers to feed), narrower than "everything
/// this cycle" so a flood against one shard still bounds per-pass latency
/// and batch memory.
constexpr std::size_t kShardBatch = 64;

/// Which shard's loop thread we are on, if any. dispatch() keys the
/// same-shard fast path and the ring producer index off this; the owner
/// check keeps two coexisting runtimes (tests tear fleets up and down) from
/// misrouting each other's handoffs.
struct TlsShard {
  const void* owner = nullptr;
  std::size_t index = 0;
};
thread_local TlsShard tls_shard;

}  // namespace

ReactorRuntime::ReactorRuntime(ReactorConfig cfg) : cfg_(cfg) {
  DRUM_REQUIRE(cfg.round.count() > 0, "round duration must be positive");
  DRUM_REQUIRE(cfg.jitter >= 0.0 && cfg.jitter < 1.0,
               "jitter must be in [0, 1): ", cfg.jitter);
  loop_.set_registry(&loop_registry_);
  m_resyncs_ = &loop_registry_.counter("reactor.timer_resyncs");
}

ReactorRuntime::~ReactorRuntime() { stop(); }

ReactorRuntime::NodeId ReactorRuntime::add_node(core::Node& node,
                                                std::uint64_t seed) {
  DRUM_REQUIRE(!running_.load(), "add_node while the reactor is running");
  nodes_.emplace_back(node, seed);
  NodeState& st = nodes_.back();
  if (cfg_.instrument) {
    // Uncontended (the runtime is stopped), but the telemetry fields are
    // guarded by st.mu and the analysis rightly demands the lock.
    check::MutexLock lock(st.mu);
    auto& reg = node.registry();
    st.m_ticks = &reg.counter("runner.ticks");
    st.m_polls = &reg.counter("runner.polls");
    st.m_poll_us = &reg.histogram("runner.poll_us");
    st.m_tick_interval_us = &reg.histogram("runner.tick_interval_us");
    st.m_dispatch_us = &reg.histogram("reactor.dispatch_us");
  }
  return nodes_.size() - 1;
}

Clock::duration ReactorRuntime::jittered_round(NodeState& st) {
  double j = 1.0 + cfg_.jitter * (2.0 * st.rng.uniform() - 1.0);
  return duration_cast<Clock::duration>(cfg_.round * j);
}

net::EventLoop& ReactorRuntime::home_loop(NodeState& st) {
  return sharded_.load(std::memory_order_relaxed) ? shards_[st.shard]->loop
                                                  : loop_;
}

void ReactorRuntime::install_hooks(NodeState& st) {
  NodeState* stp = &st;
  check::MutexLock node_lock(st.mu);
  // Replays existing sockets immediately and fires again on every per-round
  // random-port rotation (from a worker, inside on_round, under st.mu).
  st.node->set_socket_hook([this, stp](net::Socket& sock, bool added) {
    if (added) {
      auto id = loop_.add_socket(sock, [this, stp] {
        stp->ready.store(true);
        dispatch(*stp);
      });
      check::MutexLock lock(sources_mu_);
      sources_[&sock] = id;
    } else {
      net::EventLoop::SourceId id = 0;
      {
        check::MutexLock lock(sources_mu_);
        auto it = sources_.find(&sock);
        if (it == sources_.end()) return;
        id = it->second;
        sources_.erase(it);
      }
      loop_.remove_socket(id);
    }
  });
}

void ReactorRuntime::install_hooks_sharded(NodeState& st) {
  NodeState* stp = &st;
  Shard* sh = shards_[st.shard].get();
  std::shared_ptr<CallbackGate> gate = gate_;
  check::MutexLock node_lock(st.mu);
  st.node->set_socket_hook([this, stp, sh, gate](net::Socket& sock,
                                                 bool added) {
    if (added) {
      if (sock.native_handle() >= 0) {
        // Real fd: epoll on the home shard's loop — readiness fires on the
        // home thread with no cross-thread structure at all.
        auto id = sh->loop.add_socket(sock, [this, stp] {
          stp->ready.store(true);
          dispatch(*stp);
        });
        check::MutexLock lock(sh->sources_mu);
        sh->sources[&sock] = id;
      } else {
        // MemSocket: bypass the loop's mem bridge (whose notify path takes
        // the consumer loop's mutex from the sender's thread) and route the
        // readiness edge through dispatch() directly — same-shard sends
        // stay thread-local, cross-shard sends ride the SPSC ring.
        {
          check::MutexLock lock(sh->sources_mu);
          sh->sources[&sock] = 0;  // 0: no loop registration to undo
        }
        sock.set_ready_callback([this, stp, gate] {
          // Announce the entry before checking the gate: stop_sharded()
          // closes it and then waits for `inside` to drain, so either it
          // sees this call or this call sees the gate closed.
          gate->inside.fetch_add(1);
          if (gate->open.load()) {
            stp->ready.store(true);
            dispatch(*stp);
          }
          gate->inside.fetch_sub(1);
        });
        // Datagrams may have been delivered before the callback attached.
        stp->ready.store(true);
        dispatch(*stp);
      }
    } else {
      net::EventLoop::SourceId id = 0;
      {
        check::MutexLock lock(sh->sources_mu);
        auto it = sh->sources.find(&sock);
        if (it == sh->sources.end()) return;
        id = it->second;
        sh->sources.erase(it);
      }
      if (id != 0) {
        sh->loop.remove_socket(id);
      } else {
        sock.set_ready_callback(nullptr);
      }
    }
  });
}

void ReactorRuntime::arm_first_tick(NodeState& st) {
  st.next_deadline = Clock::now() + jittered_round(st);
  st.last_tick = Clock::now();
  st.timer_id = home_loop(st).add_timer(st.next_deadline,
                                        [this, &st] { on_round_timer(st); });
}

void ReactorRuntime::on_round_timer(NodeState& st) {
  st.fire_us.store(
      duration_cast<microseconds>(Clock::now().time_since_epoch()).count());
  st.round_due.store(true);
  dispatch(st);
  // Drift-free re-arm: the next deadline grows from the previous *deadline*,
  // so dispatch slop never accumulates. Only when a stall has pushed us a
  // full round (or more) behind do we resync to now — skipping the backlog
  // instead of burst-firing it.
  st.next_deadline += jittered_round(st);
  auto now = Clock::now();
  if (st.next_deadline <= now) {
    st.next_deadline = now + jittered_round(st);
    if (sharded_.load(std::memory_order_relaxed)) {
      shards_[st.shard]->m_resyncs->inc();
    } else {
      m_resyncs_->inc();
    }
  }
  st.timer_id = home_loop(st).add_timer(st.next_deadline,
                                        [this, &st] { on_round_timer(st); });
}

void ReactorRuntime::dispatch(NodeState& st) {
  // `scheduled` only dedups queue/ring entries. A notifier that loses this
  // race is covered: the winner clears `scheduled` before draining the
  // flags, so any flag set after that drain finds `scheduled` false and
  // re-enqueues.
  if (st.scheduled.exchange(true)) return;
  if (!sharded_.load(std::memory_order_relaxed)) {
    if (inline_dispatch_.load(std::memory_order_relaxed)) {
      run_node(st);
      return;
    }
    {
      check::MutexLock lock(queue_mu_);
      queue_.push_back(&st);
    }
    queue_cv_.notify_one();
    return;
  }

  Shard& home = *shards_[st.shard];
  if (tls_shard.owner == this) {
    const std::size_t from = tls_shard.index;
    if (from == st.shard) {
      // drum-lint: shard-local
      // Same shard: the node is drained later this cycle (or next — the
      // cycle hook self-wakes when it leaves work behind). Pure
      // thread-local push.
      home.ready.push_back(&st);
      return;
      // drum-lint: shard-local end
    }
    Shard& prod = *shards_[from];
    util::SpscRing<NodeState*>& ring = *home.inbound[from];
    ring.assume_producer();  // shard `from`'s thread is the sole pusher
    if (ring.try_push(&st)) {
      prod.m_handoffs->inc();
      // Dekker handshake with shard_cycle(): our push must be visible to
      // the consumer's post-idle ring re-scan OR its idle=true must be
      // visible to us — the paired seq_cst fences guarantee at least one.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (home.idle.exchange(false, std::memory_order_relaxed)) {
        home.loop.wake();
        prod.m_wakes->inc();
      }
      return;
    }
    prod.m_ring_full->inc();
    // Fall through: the ring is transiently overfull — the loop's post queue
    // is the unbounded safety valve.
  }
  // External threads (harness, attacker, with_node-triggered rotations) and
  // ring-full fallbacks go through the home loop's post queue.
  home.loop.post([this, &st] { shards_[st.shard]->ready.push_back(&st); });
}

void ReactorRuntime::run_node(NodeState& st) {
  NodeState* stp = &st;
  run_batch(std::span<NodeState* const>(&stp, 1), inline_batch_,
            inline_scratch_);
}

void ReactorRuntime::run_batch(std::span<NodeState* const> sts,
                               core::ingress::IngressBatch& batch,
                               std::vector<Drained>& scratch) {
  scratch.clear();

  // Phase 1 — drain. Each node is held only long enough to move its backlog
  // (budget-charged, greylist-peeked, decoded) into the shared batch.
  for (NodeState* stp : sts) {
    NodeState& st = *stp;
    st.scheduled.store(false);
    check::MutexLock lock(st.mu);
    if (st.round_due.exchange(false)) {
      // Round ticks stay self-contained: on_round() drains, flushes and
      // re-budgets via its own internal cycle, and batching a drain across
      // the round boundary would bill the new round's budgets for the old
      // round's backlog. Its internal cycle also consumes any pending
      // readiness, so clear the flag first — an edge arriving later finds
      // scheduled == false and re-enqueues.
      st.ready.store(false);
      auto now = Clock::now();
      st.node->on_round();
      if (st.m_ticks) {
        st.m_ticks->inc();
        auto gap = duration_cast<microseconds>(now - st.last_tick).count();
        st.m_tick_interval_us->record(static_cast<std::uint64_t>(gap));
        auto now_us =
            duration_cast<microseconds>(now.time_since_epoch()).count();
        auto slop = now_us - st.fire_us.load();
        st.m_dispatch_us->record(
            static_cast<std::uint64_t>(slop < 0 ? 0 : slop));
        st.last_tick = now;
      }
      continue;
    }
    if (st.ready.exchange(false)) {
      auto t0 = Clock::now();
      st.node->drain_ingress(batch);
      scratch.push_back(Drained{
          stp, st.node,
          duration_cast<microseconds>(Clock::now() - t0).count()});
    }
  }

  if (scratch.empty()) return;

  // Phase 2 — the wide crypto pass: every signature and every port box the
  // drain produced, across ALL nodes, in one batch. No node lock is held
  // here, so co-workers keep draining and round ticks keep firing.
  batch.verify();

  // Phase 3 — push the verified frames back in, per node, serialized again.
  for (Drained& d : scratch) {
    NodeState& st = *d.st;
    check::MutexLock lock(st.mu);
    auto t0 = Clock::now();
    auto& sec = batch.section_for(*d.node);
    if (!sec.frames.empty()) {
      d.node->ingest(std::span<core::ingress::VerifiedFrame>(sec.frames));
    }
    if (st.m_polls) {
      auto dt = duration_cast<microseconds>(Clock::now() - t0).count();
      st.m_polls->inc();
      st.m_poll_us->record(static_cast<std::uint64_t>(d.drain_us + dt));
    }
  }
  batch.clear();
}

void ReactorRuntime::worker_main() {
  std::vector<NodeState*> popped;
  popped.reserve(kWorkerBatch);
  std::vector<Drained> scratch;
  scratch.reserve(kWorkerBatch);
  core::ingress::IngressBatch batch;
  for (;;) {
    popped.clear();
    {
      check::MutexLock lock(queue_mu_);
      queue_cv_.wait(lock, [this]() DRUM_REQUIRES(queue_mu_) {
        return workers_stop_ || !queue_.empty();
      });
      if (workers_stop_ && queue_.empty()) return;
      while (!queue_.empty() && popped.size() < kWorkerBatch) {
        popped.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    run_batch(popped, batch, scratch);
  }
}

void ReactorRuntime::drain_rings(Shard& sh) {
  // drum-lint: shard-local
  for (auto& ring : sh.inbound) {
    if (!ring) continue;
    ring->assume_consumer();  // this shard's thread is the sole popper
    NodeState* st = nullptr;
    while (ring->try_pop(st)) sh.ready.push_back(st);
  }
  // drum-lint: shard-local end
}

void ReactorRuntime::shard_cycle(Shard& sh) {
  // We are demonstrably awake; claim active so producers stop nudging.
  sh.idle.store(false, std::memory_order_relaxed);
  drain_rings(sh);
  if (!sh.ready.empty()) {
    // drum-lint: shard-local
    // Swap before processing: run_batch re-enters dispatch() (a node's
    // sends wake same-shard peers), which appends to sh.ready — never to
    // the vector being iterated.
    sh.proc.clear();
    sh.proc.swap(sh.ready);
    std::size_t i = 0;
    while (i < sh.proc.size()) {
      const std::size_t n = std::min(kShardBatch, sh.proc.size() - i);
      run_batch(std::span<NodeState* const>(sh.proc.data() + i, n), sh.batch,
                sh.drain_scratch);
      sh.m_batches->inc();
      i += n;
    }
    sh.proc.clear();
    // drum-lint: shard-local end
  }
  if (!sh.ready.empty()) {
    // Processing produced more same-shard work. Return through epoll (so fd
    // readiness and timers are not starved) but make it come straight back.
    sh.loop.wake();
    return;
  }
  // Nothing local. Declare idle, then re-scan the rings: a producer whose
  // push raced our drain either sees idle == true (and nudges us) or its
  // push is visible to this scan — the fence pairs with dispatch()'s.
  sh.idle.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (auto& ring : sh.inbound) {
    if (ring && !ring->empty()) {
      sh.idle.store(false, std::memory_order_relaxed);
      sh.loop.wake();
      return;
    }
  }
  // Truly idle: block in epoll until a producer's nudge, fd readiness, or
  // the next round timer. (A lost wake cannot stall the shard forever —
  // every node re-arms a round timer on this loop.)
}

void ReactorRuntime::start() {
  check::MutexLock lifecycle(lifecycle_mu_);
  if (running_.exchange(true)) return;
  std::size_t n = cfg_.shards;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  n_shards_.store(n, std::memory_order_relaxed);
  sharded_.store(n >= 2, std::memory_order_relaxed);
  // A fresh run has no node in any queue, ring or ready list. A flag left
  // set by the previous run (say, a readiness edge that landed while stop()
  // was detaching) would make every dispatch() return early and the node
  // would never drain again. Installing the hooks below replays readiness.
  for (auto& st : nodes_) {
    st.scheduled.store(false);
    st.ready.store(false);
    st.round_due.store(false);
  }
  if (n >= 2) {
    start_sharded(n);
  } else {
    start_single();
  }
}

void ReactorRuntime::start_single() {
  {
    check::MutexLock lock(queue_mu_);
    workers_stop_ = false;
  }
  // Workers first so inline-vs-queued dispatch is decided before any event
  // can fire (dispatch() keys off inline_dispatch_ — the lock-free mirror
  // of workers_.empty(), which itself stays under lifecycle_mu_).
  inline_dispatch_.store(cfg_.workers == 0);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  for (auto& st : nodes_) {
    // add_socket queues an initial catch-up dispatch per socket, so
    // datagrams that arrived before start() are polled without an explicit
    // kick here.
    install_hooks(st);
    arm_first_tick(st);
  }
  // Clear any stop request left by a previous run; lifecycle_mu_ guarantees
  // no stop() can race this before the new loop thread is launched.
  loop_.reset();
  loop_thread_ = std::thread([this] { loop_.run(); });
}

void ReactorRuntime::start_sharded(std::size_t n_shards) {
  shards_.clear();
  gate_ = std::make_shared<CallbackGate>();
  const std::size_t per_shard = (nodes_.size() + n_shards - 1) / n_shards;
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    Shard& sh = *shards_.back();
    sh.index = s;
    sh.loop.set_registry(&sh.registry);
    sh.m_handoffs = &sh.registry.counter("reactor.shard.ring_handoffs");
    sh.m_wakes = &sh.registry.counter("reactor.shard.wakeups");
    sh.m_ring_full = &sh.registry.counter("reactor.shard.ring_full_fallbacks");
    sh.m_batches = &sh.registry.counter("reactor.shard.batches");
    sh.m_resyncs = &sh.registry.counter("reactor.timer_resyncs");
    sh.ready.reserve(per_shard + kShardBatch);
    sh.proc.reserve(per_shard + kShardBatch);
    sh.drain_scratch.reserve(kShardBatch);
    sh.inbound.resize(n_shards);
    for (std::size_t p = 0; p < n_shards; ++p) {
      if (p == s) continue;
      sh.inbound[p] = std::make_unique<util::SpscRing<NodeState*>>(
          std::max<std::size_t>(64, per_shard + 1));
    }
    Shard* shp = &sh;
    sh.loop.set_cycle_callback([this, shp] { shard_cycle(*shp); });
  }
  std::size_t id = 0;
  for (auto& st : nodes_) {
    st.shard = id++ % n_shards;
    install_hooks_sharded(st);
    arm_first_tick(st);
  }
  for (auto& shp : shards_) {
    Shard* sh = shp.get();
    sh->loop.reset();
    sh->thread = std::thread([this, sh] {
      tls_shard = TlsShard{this, sh->index};
      sh->loop.run();
      tls_shard = TlsShard{};
    });
  }
}

void ReactorRuntime::stop() {
  check::MutexLock lifecycle(lifecycle_mu_);
  if (!running_.load()) return;
  if (sharded_.load(std::memory_order_relaxed)) {
    stop_sharded();
  } else {
    stop_single();
  }
  running_.store(false);
}

void ReactorRuntime::stop_single() {
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    check::MutexLock lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // With all threads quiesced, return the nodes to plain single-threaded
  // life: cancel round timers (else a restart would burst-fire the stale
  // backlog), detach the hooks, and unregister every socket.
  for (auto& st : nodes_) {
    loop_.cancel_timer(st.timer_id);
    check::MutexLock node_lock(st.mu);
    st.node->set_socket_hook(nullptr);
  }
  {
    check::MutexLock lock(sources_mu_);
    for (auto& [sock, id] : sources_) loop_.remove_socket(id);
    sources_.clear();
  }
}

void ReactorRuntime::stop_sharded() {
  for (auto& sh : shards_) sh->loop.stop();
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  // Shard threads are joined, but another thread can still be inside a
  // MemSocket readiness callback. Close the gate and wait it out: after
  // this, no dispatch() reaches the shards torn down below.
  gate_->open.store(false);
  while (gate_->inside.load() != 0) std::this_thread::yield();
  // Cancel timers, detach hooks, and unregister sockets. Rings and ready
  // lists may hold stale entries; they die with the shards below, and
  // start() clears the scheduling flags they leave set.
  for (auto& st : nodes_) {
    shards_[st.shard]->loop.cancel_timer(st.timer_id);
    check::MutexLock node_lock(st.mu);
    st.node->set_socket_hook(nullptr);
  }
  for (auto& sh : shards_) {
    check::MutexLock lock(sh->sources_mu);
    for (auto& [sock, id] : sh->sources) {
      if (id != 0) {
        sh->loop.remove_socket(id);
      } else {
        sock->set_ready_callback(nullptr);
      }
    }
    sh->sources.clear();
  }
  // Fold every shard's loop + reactor.shard.* telemetry into the runtime
  // registry, then tear the shards down (a restart builds fresh ones).
  for (auto& sh : shards_) loop_registry_.merge(sh->registry);
  loop_registry_.gauge("reactor.shards")
      .set(static_cast<double>(shards_.size()));
  shards_.clear();
}

core::MessageId ReactorRuntime::multicast(NodeId id, util::ByteSpan payload) {
  DRUM_REQUIRE(id < nodes_.size(), "multicast: bad node id ", id);
  NodeState& st = nodes_[id];
  check::MutexLock lock(st.mu);
  return st.node->multicast(payload);
}

void ReactorRuntime::with_node(NodeId id,
                               const std::function<void(core::Node&)>& fn) {
  DRUM_REQUIRE(id < nodes_.size(), "with_node: bad node id ", id);
  DRUM_REQUIRE(fn != nullptr, "with_node requires a callable");
  NodeState& st = nodes_[id];
  check::MutexLock lock(st.mu);
  fn(*st.node);
}

}  // namespace drum::runtime
