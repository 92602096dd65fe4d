// TcpTransport — the real-socket Transport backend.
//
// Epoll-driven, non-blocking end to end, length-prefixed frames:
//
//   [u32 length, little-endian][length bytes]
//
// The first frame on every connection is a link hello — payload
// "SCRW" + [u32 sender PeerId] — so the accepting side learns who
// dialed in (dialers already know whom they dialed; they send the
// hello, acceptors consume it). Everything after is opaque payload for
// the layer above (PeerSupervisor adds its own incarnation header).
//
// Discipline, shared with DebugEndpoint and enforced through the same
// support::io hook table so one EINTR/short-write interposer covers
// every syscall site in the process:
//   * EINTR: retry the call — a signal is not a dead peer;
//   * short write: advance the cursor, finish at the next safepoint;
//   * EAGAIN: stop pumping, never tear down.
//
// Syscalls per frame are kept few, since every process of a deployment
// may share one CPU:
//   * send() only queues. Queued output is written at the end of
//     service() and before wait_io() blocks, so frames queued together
//     leave in one send(). EPOLLOUT is armed only after send() returns
//     EAGAIN, while a full socket holds output back;
//   * a connection's read loop ends on a short recv(): the socket is
//     drained, and level-triggered epoll reports the next arrival;
//   * service() calls epoll_wait once, again only if the event array
//     came back full.
// TransportStats::syscalls counts every epoll and socket call made.
//
// Outbound frames queue per peer, bounded by max_queue_bytes; past the
// bound send() refuses and counts (frames_shed) — a slow peer sheds
// load, it does not grow our heap. A connection that dies leaves its
// queue intact: frames drain after reconnect (the application layers
// above decide staleness via incarnations, not the socket layer).
//
// Reconnect is capped exponential backoff on the VIRTUAL clock — the
// same loop-multiplication arithmetic as runtime::Supervisor restart
// backoff, bit-exact on every libm, so a sim replay of a reconnect
// schedule is byte-identical. The Wire pump's wait_io pacing gives
// those virtual ticks a real-time floor.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "runtime/transport.hpp"

namespace script::runtime {

struct TcpOptions {
  std::uint64_t backoff_initial = 5;   // ticks before first retry
  double backoff_factor = 2.0;
  std::uint64_t backoff_max = 500;     // cap
  std::size_t max_queue_bytes = 1u << 20;   // per-peer outbound cap
  std::size_t max_frame_bytes = 16u << 20;  // wire sanity limit
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(PeerId self, TcpOptions opts = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Accept inbound links on 127.0.0.1:`port` (0 = ephemeral; see
  /// bound_port()). Returns false with errno intact on failure.
  bool listen(std::uint16_t port);
  std::uint16_t bound_port() const { return bound_port_; }

  /// WE dial `id` at host:port (connections open lazily at the next
  /// service()). Topologies pick one dialer per pair: the lockdb
  /// harness has drivers dial servers and replica i dial replica j>i.
  void add_peer(PeerId id, const std::string& host, std::uint16_t port);

  PeerId self() const override { return self_; }
  bool send(PeerId to, std::string frame) override;
  std::size_t poll(const PollFn& fn) override;
  void service() override;
  void wait_io(int timeout_us) override;
  void kick(PeerId peer) override;
  void slow_close(PeerId peer) override;
  LinkState link_state(PeerId peer) const override;
  std::vector<PeerId> peers() const override;

 private:
  struct Conn {
    int fd = -1;
    PeerId peer = kNoPeer;  // kNoPeer: accepted, hello not yet read
    bool connecting = false;
    bool hello_sent = false;
    bool epollout = false;  // EPOLLOUT currently armed
    std::string in;
    std::string out;  // flattened [len][bytes]... with partial-write cursor
  };

  struct Peer {
    std::string host;
    std::uint16_t port = 0;
    bool dial = false;       // we connect (vs. they dial in)
    int conn = -1;           // index into conns_, -1 = none
    bool was_up = false;     // for reconnects accounting
    std::uint64_t attempts = 0;
    std::uint64_t next_attempt = 0;  // virtual tick
    std::deque<std::string> queue;   // un-flushed frames
    std::size_t queue_bytes = 0;
  };

  struct Received {
    PeerId from;
    std::string bytes;
  };

  int conn_of(PeerId id) const;
  void start_connect(PeerId id);
  void close_conn(int ci, const char* why);
  void drop_link(PeerId id, const char* why);   // close + arm backoff
  void pump_out(int ci);
  void pump_in(int ci);
  bool take_frames(int ci);  // false: the connection was closed
  void on_frame(int ci, std::string frame);
  void want_out(int ci, bool on);
  void feed_conn(PeerId id);  // move queued frames into conn.out
  void flush();  // pump_out every connection not waiting on EPOLLOUT
  void accept_all();

  /// Passes a syscall's result through, counting the call.
  template <typename R>
  R sys(R result) {
    ++stats_.syscalls;
    return result;
  }
  void ctl(int op, int fd, std::uint32_t events, std::uint64_t data);

  PeerId self_;
  TcpOptions opts_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::vector<Conn> conns_;
  std::map<PeerId, Peer> peers_;  // ordered: deterministic sweeps
  std::deque<Received> received_;
};

}  // namespace script::runtime
