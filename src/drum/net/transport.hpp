// Datagram transport abstraction for the real (non-simulated) Drum protocol
// implementation.
//
// Two implementations exist:
//  * MemTransport — an in-process packet network with configurable loss and
//    spoofable sources; deterministic and fast, used by unit/integration
//    tests and the measurement harness's default mode;
//  * UdpTransport — real UDP sockets (loopback by default), substituting for
//    the paper's 50-machine Emulab LAN.
//
// Semantics are UDP-like by design: unreliable, unordered (MemTransport
// preserves order; UDP on loopback mostly does too), datagram-boundary-
// preserving, and with a *bounded receive queue per bound port* — the OS
// socket buffer in UDP, an explicit cap in MemTransport. The bounded queue is
// what a DoS flood fills.
//
// Readiness: sockets are still pull-only (recv() never blocks), but they can
// announce that pulling would succeed. Sockets backed by a real fd expose it
// via native_handle() for epoll (drum::net::EventLoop); fd-less sockets
// (MemTransport) accept a ready-callback instead, which the reactor runtime
// wires to its dispatch — see DESIGN.md §8 and §13.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "drum/util/bytes.hpp"

namespace drum::net {

/// A datagram address: host + port. For UDP, host is an IPv4 address in host
/// byte order; for MemTransport, host is an arbitrary node number.
struct Address {
  std::uint32_t host = 0;
  std::uint16_t port = 0;

  auto operator<=>(const Address&) const = default;
};

std::string to_string(const Address& a);

struct Datagram {
  Address from;  ///< claimed source — spoofable, never trust for security
  util::Bytes payload;
};

/// One destination + payload pair for a scatter send (Socket::send_many).
/// The payload is a view; the caller keeps the bytes alive until the call
/// returns.
struct OutboundDatagram {
  Address to;
  util::ByteSpan payload;
};

/// A bound datagram socket. recv()/send() are not thread-safe; one node owns
/// and polls the socket. set_ready_callback() is the one cross-thread entry
/// point (see below).
class Socket {
 public:
  virtual ~Socket() = default;

  /// Non-blocking receive; nullopt when the queue is empty.
  virtual std::optional<Datagram> recv() = 0;

  /// Batched non-blocking receive: drains up to `max` datagrams into `out`,
  /// returning how many were read. The default adapts recv(); UdpSocket
  /// overrides it with recvmmsg so a flood victim drains its kernel queue in
  /// one syscall.
  virtual std::size_t recv_batch(Datagram* out, std::size_t max);

  /// Fire-and-forget send. May drop (loss, full queue, no such port) —
  /// exactly like UDP.
  virtual void send(const Address& to, util::ByteSpan payload) = 0;

  /// Batched send of `count` payloads to one destination. The default loops
  /// send(); UdpSocket overrides it with sendmmsg so an attack-traffic
  /// generator reaches line rate.
  virtual void send_batch(const Address& to, const util::ByteSpan* payloads,
                          std::size_t count);

  /// Batched fire-and-forget send to possibly DISTINCT destinations — the
  /// egress mirror of recv_batch. A gossip round fans out to view_push +
  /// view_pull peers plus the round's control replies; sent one at a time
  /// that is a lock acquisition (MemTransport) or a syscall (UDP) per
  /// datagram. The default loops send(); MemSocket takes the network lock
  /// once for the whole fan-out and UdpSocket issues one sendmmsg.
  virtual void send_many(const OutboundDatagram* msgs, std::size_t count);

  /// The local address this socket is bound to.
  [[nodiscard]] virtual Address local() const = 0;

  /// OS-pollable file descriptor, or -1 when the transport has none
  /// (MemTransport). An EventLoop registers fds with epoll; fd-less sockets
  /// signal readiness through set_ready_callback() instead.
  [[nodiscard]] virtual int native_handle() const { return -1; }

  /// Readiness bridge for fd-less sockets: `cb` is invoked whenever a
  /// datagram lands in this socket's receive queue, *possibly from another
  /// thread* (the sender's). The callback must be cheap and lock-light — the
  /// reactor's pushes the node onto its shard's ready list or ring. Pass
  /// nullptr to detach. Sockets with a native_handle ignore this.
  virtual void set_ready_callback(std::function<void()> cb) { (void)cb; }
};

/// Why a bind failed. kNone is reserved for "no error" (success).
enum class BindError : std::uint8_t {
  kNone = 0,
  kPortTaken,       ///< the requested port is already bound
  kPortsExhausted,  ///< port 0: no free ephemeral port left
  kSystem,          ///< OS-level failure (fd limit, permissions, ...)
};

const char* to_string(BindError e);

/// Result of Transport::bind(): a live socket or a typed error. Socket-like
/// on success (operator->, operator*) so straight-line callers read
/// naturally; callers that keep the socket call take().
class BindResult {
 public:
  /// Success. `socket` must be non-null. (Templated so concrete socket
  /// types convert in one implicit step.)
  template <typename S,
            typename = std::enable_if_t<std::is_base_of_v<Socket, S>>>
  BindResult(std::unique_ptr<S> socket)  // NOLINT(*-explicit-*)
      : socket_(std::move(socket)) {}
  /// Failure. `error` must not be kNone.
  BindResult(BindError error)  // NOLINT(*-explicit-*)
      : error_(error) {}

  [[nodiscard]] bool ok() const { return socket_ != nullptr; }
  explicit operator bool() const { return ok(); }
  /// kNone on success.
  [[nodiscard]] BindError error() const { return error_; }

  [[nodiscard]] Socket* get() const { return socket_.get(); }
  Socket* operator->() const { return socket_.get(); }
  Socket& operator*() const { return *socket_; }

  /// Moves the socket out (null when !ok()).
  std::unique_ptr<Socket> take() { return std::move(socket_); }

 private:
  std::unique_ptr<Socket> socket_;
  BindError error_ = BindError::kNone;
};

/// Per-node endpoint factory.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Binds a socket on `port`; port 0 picks an unused high port at random —
  /// this is Drum's "random port" primitive. On failure the result carries a
  /// typed BindError instead of a socket.
  virtual BindResult bind(std::uint16_t port) = 0;

  /// The host part all sockets of this transport are bound on.
  [[nodiscard]] virtual std::uint32_t host() const = 0;
};

}  // namespace drum::net
