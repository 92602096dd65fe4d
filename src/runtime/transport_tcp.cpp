#include "runtime/transport_tcp.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "support/io.hpp"

namespace script::runtime {

namespace {

constexpr char kHelloMagic[4] = {'S', 'C', 'R', 'W'};

// One epoll_wait returns at most this many events; a full array means
// more may be ready.
constexpr int kMaxEvents = 32;

std::string encode_frame(const std::string& payload) {
  std::string out;
  out.reserve(4 + payload.size());
  const auto n = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  out += payload;
  return out;
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

std::string hello_payload(PeerId self) {
  std::string h(kHelloMagic, 4);
  for (int i = 0; i < 4; ++i)
    h.push_back(static_cast<char>((self >> (8 * i)) & 0xff));
  return h;
}

}  // namespace

TcpTransport::TcpTransport(PeerId self, TcpOptions opts)
    : self_(self), opts_(opts) {
  epoll_fd_ = sys(::epoll_create1(EPOLL_CLOEXEC));
}

TcpTransport::~TcpTransport() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool TcpTransport::listen(std::uint16_t port) {
  const int fd =
      sys(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (fd < 0) return false;
  const int one = 1;
  sys(::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (sys(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof addr)) != 0 ||
      sys(::listen(fd, 16)) != 0) {
    const int saved = errno;
    sys(::close(fd));
    errno = saved;
    return false;
  }
  socklen_t alen = sizeof addr;
  sys(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen));
  bound_port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  ctl(EPOLL_CTL_ADD, fd, EPOLLIN, ~0ull);  // listen fd sentinel
  return true;
}

void TcpTransport::add_peer(PeerId id, const std::string& host,
                            std::uint16_t port) {
  Peer& p = peers_[id];
  p.host = host;
  p.port = port;
  p.dial = true;
  p.next_attempt = 0;  // eligible at the next service()
}

int TcpTransport::conn_of(PeerId id) const {
  const auto it = peers_.find(id);
  return it == peers_.end() ? -1 : it->second.conn;
}

void TcpTransport::ctl(int op, int fd, std::uint32_t events,
                       std::uint64_t data) {
  ++stats_.epoll_ctls;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  sys(::epoll_ctl(epoll_fd_, op, fd, &ev));
}

void TcpTransport::want_out(int ci, bool on) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  if (c.fd < 0 || c.epollout == on) return;
  c.epollout = on;
  ctl(EPOLL_CTL_MOD, c.fd, EPOLLIN | (on ? EPOLLOUT : 0u),
      static_cast<std::uint64_t>(ci));
}

void TcpTransport::start_connect(PeerId id) {
  Peer& p = peers_[id];
  const int fd =
      sys(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (fd < 0) return;
  const int one = 1;
  sys(::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(p.port);
  if (::inet_pton(AF_INET, p.host.c_str(), &addr.sin_addr) != 1) {
    sys(::close(fd));
    return;
  }
  int rc;
  do {
    rc = sys(support::io.connect(
        fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    sys(::close(fd));
    drop_link(id, "connect refused");
    return;
  }
  Conn c;
  c.fd = fd;
  c.peer = id;
  c.connecting = (rc != 0);
  const int ci = static_cast<int>(conns_.size());
  conns_.push_back(std::move(c));
  p.conn = ci;
  // OUT signals connect completion.
  ctl(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLOUT, static_cast<std::uint64_t>(ci));
  conns_[static_cast<std::size_t>(ci)].epollout = true;
  publish("wire.connecting", "peer=" + std::to_string(id));
}

void TcpTransport::close_conn(int ci, const char* why) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  if (c.fd < 0) return;
  if (!c.in.empty()) {
    // The link died with a partial frame buffered: counted, discarded.
    ++stats_.torn_frames;
    publish("wire.torn_frame", "peer=" + std::to_string(c.peer));
  }
  ctl(EPOLL_CTL_DEL, c.fd, 0, 0);
  sys(::close(c.fd));
  c.fd = -1;
  c.in.clear();
  c.out.clear();
  if (c.peer != kNoPeer) {
    const auto it = peers_.find(c.peer);
    if (it != peers_.end() && it->second.conn == ci) it->second.conn = -1;
  }
  publish("wire.closed",
          "peer=" + std::to_string(c.peer) + " " + why);
}

void TcpTransport::drop_link(PeerId id, const char* why) {
  Peer& p = peers_[id];
  if (p.conn >= 0) close_conn(p.conn, why);
  ++stats_.disconnects;
  publish("wire.link_down", "peer=" + std::to_string(id) + " " + why);
  if (!p.dial) return;  // they dialed us; they reconnect
  // Capped exponential backoff, same loop-multiplication arithmetic as
  // Supervisor::restart_later: bit-exact on every libm, so the retry
  // schedule replays identically in the sim twin.
  ++p.attempts;
  double b = static_cast<double>(opts_.backoff_initial);
  for (std::uint64_t k = 1; k < p.attempts; ++k) b *= opts_.backoff_factor;
  const std::uint64_t backoff =
      std::min(opts_.backoff_max, static_cast<std::uint64_t>(b));
  p.next_attempt = clock_now() + backoff;
  publish("wire.backoff", "peer=" + std::to_string(id),
          static_cast<double>(backoff));
}

bool TcpTransport::send(PeerId to, std::string frame) {
  if (frame.size() > opts_.max_frame_bytes) {
    ++stats_.frames_shed;
    return false;
  }
  Peer& p = peers_[to];
  if (p.queue_bytes + frame.size() > opts_.max_queue_bytes) {
    ++stats_.frames_shed;
    publish("wire.shed", "peer=" + std::to_string(to),
            static_cast<double>(frame.size()));
    return false;
  }
  stats_.frames_sent += 1;
  stats_.bytes_sent += frame.size();
  p.queue_bytes += frame.size();
  p.queue.push_back(std::move(frame));
  feed_conn(to);
  return true;
}

void TcpTransport::feed_conn(PeerId id) {
  Peer& p = peers_[id];
  if (p.conn < 0) return;
  Conn& c = conns_[static_cast<std::size_t>(p.conn)];
  if (c.fd < 0 || c.connecting) return;
  if (!c.hello_sent) {
    c.out += encode_frame(hello_payload(self_));
    c.hello_sent = true;
  }
  while (!p.queue.empty()) {
    p.queue_bytes -= p.queue.front().size();
    c.out += encode_frame(p.queue.front());
    p.queue.pop_front();
  }
  // Written by the next flush(): the end of service() or wait_io().
}

void TcpTransport::pump_out(int ci) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  std::size_t done = 0;
  while (done < c.out.size()) {
    const ssize_t n = sys(support::io.send(
        c.fd, c.out.data() + done, c.out.size() - done, MSG_NOSIGNAL));
    if (n > 0) {
      done += static_cast<std::size_t>(n);  // short write: advance
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // signal: retry
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (c.peer == kNoPeer)
      close_conn(ci, "send failed");
    else
      drop_link(c.peer, "send failed");
    return;
  }
  c.out.erase(0, done);
  // EPOLLOUT only while a full socket holds output back.
  want_out(ci, !c.out.empty());
}

void TcpTransport::flush() {
  for (int ci = 0; ci < static_cast<int>(conns_.size()); ++ci) {
    const Conn& c = conns_[static_cast<std::size_t>(ci)];
    if (c.fd >= 0 && !c.connecting && !c.epollout && !c.out.empty())
      pump_out(ci);
  }
}

void TcpTransport::on_frame(int ci, std::string frame) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  if (c.peer == kNoPeer) {
    // First frame on an accepted connection must be the link hello.
    if (frame.size() != 8 || memcmp(frame.data(), kHelloMagic, 4) != 0) {
      ++stats_.torn_frames;
      close_conn(ci, "bad hello");
      return;
    }
    const PeerId who = read_u32(frame.data() + 4);
    c.peer = who;
    Peer& p = peers_[who];  // creates an accept-side entry (dial=false)
    if (p.conn >= 0 && p.conn != ci) close_conn(p.conn, "superseded");
    p.conn = ci;
    if (p.was_up) ++stats_.reconnects;
    p.was_up = true;
    publish("wire.link_up", "peer=" + std::to_string(who) + " accepted");
    feed_conn(who);  // anything queued before they dialed in
    return;
  }
  stats_.frames_received += 1;
  stats_.bytes_received += frame.size();
  received_.push_back(Received{c.peer, std::move(frame)});
}

void TcpTransport::pump_in(int ci) {
  char buf[64 * 1024];
  for (;;) {
    Conn& c = conns_[static_cast<std::size_t>(ci)];
    const ssize_t n = sys(support::io.recv(c.fd, buf, sizeof buf, 0));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      if (c.peer == kNoPeer)
        close_conn(ci, "peer closed");
      else
        drop_link(c.peer, n == 0 ? "peer closed" : "recv failed");
      return;
    }
    c.in.append(buf, static_cast<std::size_t>(n));
    if (!take_frames(ci)) return;
    // A short read drained the socket; epoll reports the next arrival.
    if (static_cast<std::size_t>(n) < sizeof buf) return;
  }
}

bool TcpTransport::take_frames(int ci) {
  std::size_t pos = 0;
  for (;;) {
    // on_frame may close this connection (a bad hello): re-index.
    Conn& c = conns_[static_cast<std::size_t>(ci)];
    if (c.fd < 0) return false;
    if (c.in.size() - pos < 4) break;
    const std::uint32_t len = read_u32(c.in.data() + pos);
    if (len > opts_.max_frame_bytes) {
      ++stats_.torn_frames;
      if (c.peer == kNoPeer)
        close_conn(ci, "oversized frame");
      else
        drop_link(c.peer, "oversized frame");
      return false;
    }
    if (c.in.size() - pos - 4 < len) break;
    std::string frame = c.in.substr(pos + 4, len);
    pos += 4 + static_cast<std::size_t>(len);
    on_frame(ci, std::move(frame));
  }
  conns_[static_cast<std::size_t>(ci)].in.erase(0, pos);
  return true;
}

void TcpTransport::accept_all() {
  // Accept every pending connection; the hello identifies them.
  for (;;) {
    const int fd = sys(support::io.accept(listen_fd_, nullptr, nullptr,
                                          SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    const int one = 1;
    sys(::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one));
    Conn c;
    c.fd = fd;
    c.hello_sent = true;  // acceptors don't hello; dialers do
    const int ci = static_cast<int>(conns_.size());
    conns_.push_back(std::move(c));
    ctl(EPOLL_CTL_ADD, fd, EPOLLIN, static_cast<std::uint64_t>(ci));
  }
}

void TcpTransport::service() {
  bump_fallback_clock();
  if (epoll_fd_ < 0) return;

  // Reconnect sweep: dialed peers whose backoff has expired.
  for (auto& [id, p] : peers_) {
    if (p.dial && p.conn < 0 && clock_now() >= p.next_attempt)
      start_connect(id);
  }

  epoll_event evs[kMaxEvents];
  for (;;) {
    const int n = sys(::epoll_wait(epoll_fd_, evs, kMaxEvents, 0));
    if (n < 0 && errno == EINTR) continue;
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.u64 == ~0ull) {
        accept_all();
        continue;
      }
      const int ci = static_cast<int>(evs[i].data.u64);
      Conn& c = conns_[static_cast<std::size_t>(ci)];
      if (c.fd < 0) continue;
      if (c.connecting) {
        int err = 0;
        socklen_t elen = sizeof err;
        sys(::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &elen));
        if ((evs[i].events & (EPOLLERR | EPOLLHUP)) != 0 || err != 0) {
          drop_link(c.peer, "connect failed");
          continue;
        }
        if ((evs[i].events & EPOLLOUT) != 0) {
          c.connecting = false;
          Peer& p = peers_[c.peer];
          p.attempts = 0;
          if (p.was_up) ++stats_.reconnects;
          p.was_up = true;
          publish("wire.link_up", "peer=" + std::to_string(c.peer));
          feed_conn(c.peer);
          pump_out(ci);  // disarms the connect-time EPOLLOUT once drained
        }
        continue;
      }
      if ((evs[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        if (c.peer == kNoPeer)
          close_conn(ci, "hup");
        else
          drop_link(c.peer, "hup");
        continue;
      }
      if ((evs[i].events & EPOLLIN) != 0) pump_in(ci);
      Conn& c2 = conns_[static_cast<std::size_t>(ci)];
      if (c2.fd >= 0 && (evs[i].events & EPOLLOUT) != 0) pump_out(ci);
    }
    if (n < kMaxEvents) break;
  }

  // Write what was queued since the last flush, then compact dead
  // conn slots.
  flush();
  while (!conns_.empty() && conns_.back().fd < 0) conns_.pop_back();
}

std::size_t TcpTransport::poll(const PollFn& fn) {
  std::size_t delivered = 0;
  while (!received_.empty()) {
    Received r = std::move(received_.front());
    received_.pop_front();
    ++delivered;
    fn(r.from, std::move(r.bytes));
  }
  return delivered;
}

void TcpTransport::wait_io(int timeout_us) {
  if (epoll_fd_ < 0 || timeout_us <= 0) return;
  // Frames queued since service() must not sit out the wait.
  flush();
  epoll_event ev;
  // Wake on any readiness; the work itself happens in service().
  sys(::epoll_wait(epoll_fd_, &ev, 1, std::max(1, timeout_us / 1000)));
}

void TcpTransport::kick(PeerId peer) {
  drop_link(peer, "kick");
}

void TcpTransport::slow_close(PeerId peer) {
  const int ci = conn_of(peer);
  if (ci >= 0) {
    Conn& c = conns_[static_cast<std::size_t>(ci)];
    if (c.fd >= 0 && !c.connecting) {
      // Half a length prefix, then the close: the peer sees a torn
      // frame, the nastiest shape a real crash leaves on the wire.
      const char torn[2] = {0x10, 0x00};
      (void)sys(support::io.send(c.fd, torn, sizeof torn, MSG_NOSIGNAL));
    }
  }
  drop_link(peer, "slow close");
}

LinkState TcpTransport::link_state(PeerId id) const {
  const auto it = peers_.find(id);
  if (it == peers_.end()) return LinkState::Down;
  const Peer& p = it->second;
  if (p.conn >= 0) {
    const Conn& c = conns_[static_cast<std::size_t>(p.conn)];
    if (c.fd >= 0) return c.connecting ? LinkState::Connecting : LinkState::Up;
  }
  if (p.dial) return LinkState::Backoff;
  return LinkState::Down;
}

std::vector<PeerId> TcpTransport::peers() const {
  std::vector<PeerId> out;
  for (const auto& [id, p] : peers_) out.push_back(id);
  return out;
}

}  // namespace script::runtime
