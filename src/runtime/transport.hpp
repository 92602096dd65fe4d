// runtime::Transport — the frame seam between the runtime and a network.
//
// ROADMAP item 1: csp::Net/DistributedCast have only ever run over
// virtual-time sim links; proving the fault-tolerance stack (suspicion
// timeouts, lease reaping, takeover, WAL'd 2PC) requires a real network
// whose failure modes — partial writes, disconnects, reconnect
// flapping, partitions — are first-class. This header is the seam both
// worlds share:
//
//   * SimTransport (here): deterministic in-process delivery on the
//     virtual clock — the byte-identical CI twin of every distributed
//     test;
//   * TcpTransport (runtime/transport_tcp.hpp): epoll-based
//     length-prefixed frames over real sockets, serviced at scheduler
//     safepoints like DebugEndpoint;
//   * ChaosLink (runtime/chaos_link.hpp): a frame-level interposer
//     (drop/delay/duplicate/partition/slow-close, seeded) stacked
//     between an application layer and either backend, so the PR 2
//     fault matrices run identically against both;
//   * PeerSupervisor (runtime/peer_supervisor.hpp): heartbeats,
//     reconnect backoff, sticky per-incarnation suspicion.
//
// A Transport moves opaque byte frames between numbered peers. Frames
// are fire-and-forget: send() queues (bounded, counted shedding — the
// overload taxonomy's rule that buffering without bound is the real
// failure), poll() drains arrivals, service() pumps whatever I/O is
// ready without ever blocking. Synchronous rendezvous semantics stay
// INSIDE a process (csp::Net, §IV); between processes the runtime
// speaks frames, exactly like the paper's network of CSP machines.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/event_bus.hpp"

namespace script::runtime {

/// A node in a transport cluster (NOT a ProcessId: one peer hosts a
/// whole scheduler full of fibers).
using PeerId = std::uint32_t;
inline constexpr PeerId kNoPeer = static_cast<PeerId>(-1);

/// Link-level view of one peer.
enum class LinkState : std::uint8_t {
  Down,        // no connection (never connected, or lost and not retrying)
  Connecting,  // connect in flight
  Backoff,     // lost; reconnect timer armed (capped exponential)
  Up,          // frames flow
  Gone,        // declared permanently gone (PeerSupervisor escalation)
};

const char* link_state_name(LinkState s);

/// Counted-never-silent accounting. Every injected fault and every shed
/// frame lands in one of these, so a test (or an operator) can see each
/// fault kind happen rather than infer it from downstream symptoms.
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_shed = 0;      // bounded outbound queue overflow
  std::uint64_t torn_frames = 0;      // partial frame at connection death
  std::uint64_t disconnects = 0;      // link went down
  std::uint64_t reconnects = 0;       // link came back up
  std::uint64_t stale_frames = 0;     // dropped: stale incarnation
  // Real-socket backends only (zero on sim): every epoll and socket
  // call made, and how many of them were epoll_ctl.
  std::uint64_t syscalls = 0;
  std::uint64_t epoll_ctls = 0;
  // Chaos-link injections (zero on a plain backend):
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_delayed = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_partitioned = 0;  // frames eaten by a partition
  std::uint64_t chaos_slow_closes = 0;
};

class Transport {
 public:
  using PollFn = std::function<void(PeerId from, std::string&& frame)>;

  virtual ~Transport() = default;

  /// This endpoint's peer id.
  virtual PeerId self() const = 0;

  /// Queue `frame` toward `to`. Returns false when the frame was shed
  /// (bounded queue full, or the peer is Gone); false is a *counted*
  /// refusal, never a silent drop.
  virtual bool send(PeerId to, std::string frame) = 0;

  /// Drain every deliverable received frame into `fn`; returns how
  /// many were delivered.
  virtual std::size_t poll(const PollFn& fn) = 0;

  /// Pump I/O: accept/connect/read/write whatever is ready. Never
  /// blocks. Safe to call at scheduler safepoints (like DebugEndpoint).
  virtual void service() = 0;

  /// Block the CALLING THREAD until I/O is ready or `timeout_us`
  /// elapses — the real-time pacing point of a serving loop. The sim
  /// backend returns immediately (virtual time has no idle waiting).
  virtual void wait_io(int timeout_us) { (void)timeout_us; }

  /// Force the link to `peer` down (chaos slow-close, tests). The
  /// backend's reconnect machinery may bring it back.
  virtual void kick(PeerId peer) { (void)peer; }

  /// Tear the link down MID-FRAME: the peer receives a partial frame
  /// (counted there as torn_frames, never surfaced as data) and then
  /// sees the link drop. The nastiest real-socket failure mode, made
  /// injectable on both backends. Default: plain kick.
  virtual void slow_close(PeerId peer) { kick(peer); }

  virtual LinkState link_state(PeerId peer) const = 0;
  virtual std::vector<PeerId> peers() const = 0;

  const TransportStats& stats() const { return stats_; }

  /// Virtual-time source for delivery ordering, reconnect backoff, and
  /// chaos delays. Defaults to a counter bumped per service() call so
  /// bench loops work without a scheduler; wire the scheduler's clock
  /// in (`[&]{ return sched.now(); }`) for real use.
  void set_clock(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }
  std::uint64_t clock_now() const {
    return clock_ ? clock_() : fallback_clock_;
  }

  /// Publish wire.* / chaos.* events (Subsystem::Link) on `bus`;
  /// nullptr detaches. Unobserved costs one branch per event site.
  void attach_bus(obs::EventBus* bus) { bus_ = bus; }

 protected:
  void publish(const char* name, std::string detail, double value = 0);
  void bump_fallback_clock() { ++fallback_clock_; }

  TransportStats stats_;
  obs::EventBus* bus_ = nullptr;

 private:
  std::function<std::uint64_t()> clock_;
  std::uint64_t fallback_clock_ = 0;
};

class SimTransport;

/// The shared medium of a simulated cluster: frames in flight between
/// the SimTransports attached to it, delivered on the virtual clock in
/// deterministic (due, sequence) order. Peer death is modelled with
/// set_down(): in-flight frames to a down peer are lost (a real socket
/// loses them too), new sends queue at the sender until set_up() — the
/// same observable contract as TcpTransport's reconnect machinery.
class SimNetwork {
 public:
  /// Virtual ticks a frame spends in flight (charged on delivery).
  explicit SimNetwork(std::uint64_t latency_ticks = 1)
      : latency_(latency_ticks) {}

  void set_down(PeerId peer);
  void set_up(PeerId peer);
  bool is_down(PeerId peer) const;

  std::uint64_t latency_ticks() const { return latency_; }

 private:
  friend class SimTransport;

  struct InFlight {
    std::uint64_t due;
    std::uint64_t seq;  // tie-break: network-wide send order
    PeerId from;
    std::string bytes;
    bool torn = false;  // chaos slow-close: arrives unparseable
  };

  void attach(PeerId id, SimTransport* t);
  void detach(PeerId id, SimTransport* t);
  SimTransport* endpoint(PeerId id) const;

  std::uint64_t latency_;
  std::uint64_t seq_ = 0;
  std::vector<SimTransport*> endpoints_;   // indexed by PeerId
  std::vector<bool> down_;                 // indexed by PeerId
};

/// Deterministic in-process backend: every frame is delivered through
/// the shared SimNetwork after its virtual-time latency. The CI twin:
/// a distributed test written against Transport runs here byte-
/// identically under a fixed seed.
class SimTransport final : public Transport {
 public:
  SimTransport(SimNetwork& net, PeerId self);
  ~SimTransport() override;

  PeerId self() const override { return self_; }
  bool send(PeerId to, std::string frame) override;
  std::size_t poll(const PollFn& fn) override;
  void service() override;
  void kick(PeerId peer) override;
  void slow_close(PeerId peer) override;
  LinkState link_state(PeerId peer) const override;
  std::vector<PeerId> peers() const override;

  /// Bytes a sender may queue toward one down peer before shedding.
  void set_max_pending_bytes(std::size_t n) { max_pending_ = n; }

  /// Frames queued toward down peers (all of them), for tests.
  std::size_t pending_frames() const;

 private:
  friend class SimNetwork;

  struct Pending {
    PeerId to;
    std::string bytes;
  };

  /// Deliver into this endpoint's inbox (called by the sender's side).
  void deposit(SimNetwork::InFlight f);
  void flush_pending();

  SimNetwork* net_;
  PeerId self_;
  std::vector<SimNetwork::InFlight> inbox_;  // kept sorted (due, seq)
  std::vector<Pending> pending_;             // sends to down peers
  std::size_t pending_bytes_ = 0;
  std::size_t max_pending_ = 1u << 20;  // 1 MiB, like the TCP backend
};

}  // namespace script::runtime
