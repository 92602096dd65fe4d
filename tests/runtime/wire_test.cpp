// Wire (tagged fiber messaging over a Transport) and the TcpTransport
// loopback backend: frames over real sockets, EINTR injection through
// the shared support/io seam, reconnect after kick, torn frames on
// slow-close.
#include "runtime/wire.hpp"

#include <errno.h>
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/transport.hpp"
#include "runtime/transport_tcp.hpp"
#include "support/io.hpp"

namespace {

using script::runtime::LinkState;
using script::runtime::PeerId;
using script::runtime::Scheduler;
using script::runtime::SimNetwork;
using script::runtime::SimTransport;
using script::runtime::TcpOptions;
using script::runtime::TcpTransport;
using script::runtime::Wire;

TEST(Wire, TagCodecRoundTrips) {
  const std::string f = Wire::encode("lock.req", "payload bytes");
  std::string tag, payload;
  ASSERT_TRUE(Wire::decode(f, &tag, &payload));
  EXPECT_EQ(tag, "lock.req");
  EXPECT_EQ(payload, "payload bytes");
  EXPECT_FALSE(Wire::decode("xy", &tag, &payload));
}

TEST(Wire, PostAndRecvAcrossSimEndpoints) {
  Scheduler sched;
  SimNetwork net(1);
  SimTransport ta(net, 0), tb(net, 1);
  Wire wa(sched, ta), wb(sched, tb);
  wa.start();
  wb.start();

  std::string got;
  PeerId got_from = script::runtime::kNoPeer;
  sched.spawn("server", [&] {
    Wire::Msg m;
    ASSERT_TRUE(wb.recv("greet", &m));
    got = m.payload;
    got_from = m.from;
    wb.post(m.from, "reply", "hi " + m.payload);
    wb.stop();
  });
  sched.spawn("client", [&] {
    wa.post(1, "greet", "script");
    Wire::Msg m;
    ASSERT_TRUE(wa.recv("reply", &m));
    EXPECT_EQ(m.payload, "hi script");
    wa.stop();
  });
  sched.run();
  EXPECT_EQ(got, "script");
  EXPECT_EQ(got_from, 0u);
}

TEST(Wire, RecvTimesOutWhenNothingArrives) {
  Scheduler sched;
  SimNetwork net(1);
  SimTransport ta(net, 0);
  Wire wa(sched, ta);
  wa.start();
  bool timed_out = false;
  sched.spawn("waiter", [&] {
    Wire::Msg m;
    timed_out = !wa.recv("never", &m, /*timeout_ticks=*/20);
    wa.stop();
  });
  sched.run();
  EXPECT_TRUE(timed_out);
}

TEST(Wire, TagMatchingRoutesToTheRightWaiter) {
  Scheduler sched;
  SimNetwork net(1);
  SimTransport ta(net, 0), tb(net, 1);
  Wire wa(sched, ta), wb(sched, tb);
  wa.start();
  wb.start();
  std::string apples, oranges;
  int done = 0;
  auto finish = [&] {
    if (++done == 2) {
      wa.stop();
      wb.stop();
    }
  };
  sched.spawn("apple-waiter", [&] {
    Wire::Msg m;
    ASSERT_TRUE(wb.recv("apple", &m));
    apples = m.payload;
    finish();
  });
  sched.spawn("orange-waiter", [&] {
    Wire::Msg m;
    ASSERT_TRUE(wb.recv("orange", &m));
    oranges = m.payload;
    finish();
  });
  sched.spawn("sender", [&] {
    // Sent orange-first: tag matching, not arrival order, routes.
    wa.post(1, "orange", "tangy");
    wa.post(1, "apple", "crisp");
  });
  sched.run();
  EXPECT_EQ(apples, "crisp");
  EXPECT_EQ(oranges, "tangy");
}

TEST(Wire, MailboxBuffersUntilSomeoneRecvs) {
  Scheduler sched;
  SimNetwork net(1);
  SimTransport ta(net, 0), tb(net, 1);
  Wire wa(sched, ta), wb(sched, tb);
  wa.start();
  wb.start();
  std::vector<std::string> got;
  sched.spawn("sender", [&] {
    wa.post(1, "q", "one");
    wa.post(1, "q", "two");
    wa.stop();
  });
  sched.spawn("late-reader", [&] {
    sched.sleep_for(10);  // messages land in the mailbox meanwhile
    Wire::Msg m;
    ASSERT_TRUE(wb.recv("q", &m));
    got.push_back(m.payload);
    ASSERT_TRUE(wb.recv("q", &m));
    got.push_back(m.payload);
    wb.stop();
  });
  sched.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "one");
  EXPECT_EQ(got[1], "two");
}

// ---- TcpTransport over real loopback sockets ----

/// Pump two transports until `done` or the iteration budget runs out.
/// Real sockets need real servicing loops, not virtual ticks.
template <typename Pred>
bool pump_until(TcpTransport& x, TcpTransport& y, Pred done,
                int iters = 20000) {
  for (int i = 0; i < iters; ++i) {
    x.service();
    y.service();
    if (done()) return true;
    if (i > 64) x.wait_io(200), y.wait_io(200);
  }
  return done();
}

TEST(TcpTransport, LoopbackFramesBothDirections) {
  TcpTransport server(1), client(0);
  ASSERT_TRUE(server.listen(0));
  client.add_peer(1, "127.0.0.1", server.bound_port());

  ASSERT_TRUE(client.send(1, "hello over tcp"));
  std::vector<std::string> at_server;
  ASSERT_TRUE(pump_until(client, server, [&] {
    server.poll([&](PeerId from, std::string&& f) {
      EXPECT_EQ(from, 0u);
      at_server.push_back(f);
    });
    return !at_server.empty();
  }));
  EXPECT_EQ(at_server[0], "hello over tcp");

  // The accept side learned peer 0 from the hello; replies flow back.
  ASSERT_TRUE(server.send(0, "and back"));
  std::vector<std::string> at_client;
  ASSERT_TRUE(pump_until(client, server, [&] {
    client.poll([&](PeerId, std::string&& f) { at_client.push_back(f); });
    return !at_client.empty();
  }));
  EXPECT_EQ(at_client[0], "and back");
  EXPECT_EQ(client.link_state(1), LinkState::Up);
  EXPECT_GE(server.stats().frames_received, 1u);
}

TEST(TcpTransport, LargeFramesSurvivePartialWrites) {
  TcpTransport server(1);
  ASSERT_TRUE(server.listen(0));
  // Big enough that one send() cannot possibly take it whole (and the
  // default 1 MiB queue cap would shed it — build a client with room).
  const std::string big(3u << 20, 'z');
  TcpTransport fat_client(0, [] {
    TcpOptions o;
    o.max_queue_bytes = 8u << 20;
    return o;
  }());
  fat_client.add_peer(1, "127.0.0.1", server.bound_port());
  ASSERT_TRUE(fat_client.send(1, big));
  std::string got;
  ASSERT_TRUE(pump_until(fat_client, server, [&] {
    server.poll([&](PeerId, std::string&& f) { got = std::move(f); });
    return !got.empty();
  }));
  EXPECT_EQ(got.size(), big.size());
  EXPECT_EQ(got, big);
}

TEST(TcpTransport, BoundedQueueShedsWhenPeerNeverAppears) {
  TcpTransport client(0, [] {
    TcpOptions o;
    o.max_queue_bytes = 64;
    return o;
  }());
  client.add_peer(1, "127.0.0.1", 1);  // nobody listens on port 1
  EXPECT_TRUE(client.send(1, std::string(40, 'a')));
  EXPECT_TRUE(client.send(1, std::string(20, 'b')));
  EXPECT_FALSE(client.send(1, std::string(20, 'c')));  // over the cap
  EXPECT_EQ(client.stats().frames_shed, 1u);
}

TEST(TcpTransport, KickReconnectsAndQueuedFramesSurvive) {
  TcpTransport server(1), client(0, [] {
    TcpOptions o;
    o.backoff_initial = 0;  // retry immediately: keep the test fast
    return o;
  }());
  ASSERT_TRUE(server.listen(0));
  client.add_peer(1, "127.0.0.1", server.bound_port());
  ASSERT_TRUE(pump_until(client, server, [&] {
    return client.link_state(1) == LinkState::Up;
  }));

  client.kick(1);
  EXPECT_GE(client.stats().disconnects, 1u);
  // A frame queued while the link is down must arrive post-reconnect.
  ASSERT_TRUE(client.send(1, "after the storm"));
  std::vector<std::string> got;
  ASSERT_TRUE(pump_until(client, server, [&] {
    server.poll([&](PeerId, std::string&& f) { got.push_back(f); });
    return !got.empty();
  }));
  EXPECT_EQ(got[0], "after the storm");
  EXPECT_GE(client.stats().reconnects, 1u);
}

TEST(TcpTransport, SlowCloseLeavesACountedTornFrame) {
  TcpTransport server(1), client(0);
  ASSERT_TRUE(server.listen(0));
  client.add_peer(1, "127.0.0.1", server.bound_port());
  ASSERT_TRUE(pump_until(client, server, [&] {
    return client.link_state(1) == LinkState::Up;
  }));
  // Let the hello drain so the torn bytes are the only partial data.
  ASSERT_TRUE(pump_until(client, server, [&] {
    server.poll([](PeerId, std::string&&) {});
    return server.peers().size() == 1;
  }));

  client.slow_close(1);
  ASSERT_TRUE(pump_until(client, server, [&] {
    return server.stats().torn_frames >= 1;
  }));
  EXPECT_GE(server.stats().torn_frames, 1u);
}

TEST(TcpTransport, EintrOnEverySyscallIsInvisible) {
  // The shared support/io seam (satellite 1): the same interposer that
  // hardens DebugEndpoint covers the TCP transport's syscalls.
  static int countdown = 0;
  static auto real = script::support::io;
  script::support::io.send = [](int fd, const void* b, size_t l,
                                int f) -> ssize_t {
    if (countdown > 0 && --countdown >= 0) {
      errno = EINTR;
      return -1;
    }
    return real.send(fd, b, l, f);
  };
  script::support::io.recv = [](int fd, void* b, size_t l, int f) -> ssize_t {
    if (countdown > 0 && --countdown >= 0) {
      errno = EINTR;
      return -1;
    }
    return real.recv(fd, b, l, f);
  };

  TcpTransport server(1), client(0);
  ASSERT_TRUE(server.listen(0));
  client.add_peer(1, "127.0.0.1", server.bound_port());
  countdown = 7;  // a burst of interrupts across whatever comes next
  ASSERT_TRUE(client.send(1, "signals everywhere"));
  std::vector<std::string> got;
  const bool ok = pump_until(client, server, [&] {
    server.poll([&](PeerId, std::string&& f) { got.push_back(f); });
    return !got.empty();
  });
  script::support::io = real;
  ASSERT_TRUE(ok);
  EXPECT_EQ(got[0], "signals everywhere");
  EXPECT_EQ(server.stats().disconnects, 0u) << "EINTR must not drop links";
}

/// Brings the link up and lets the hello drain, so the next frame
/// either side queues is the only traffic.
bool connect_quietly(TcpTransport& server, TcpTransport& client) {
  if (!server.listen(0)) return false;
  client.add_peer(1, "127.0.0.1", server.bound_port());
  return pump_until(client, server, [&] {
    server.poll([](PeerId, std::string&&) {});
    return client.link_state(1) == LinkState::Up &&
           server.peers().size() == 1;
  });
}

TEST(TcpTransport, SteadySendsMakeNoEpollCtl) {
  // EPOLLOUT is armed only while a full socket holds output back; a
  // frame the kernel takes at once costs no epoll_ctl on either side.
  TcpTransport server(1), client(0);
  ASSERT_TRUE(connect_quietly(server, client));
  const auto client_ctls = client.stats().epoll_ctls;
  const auto server_ctls = server.stats().epoll_ctls;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.send(1, "ping"));
    std::string got;
    ASSERT_TRUE(pump_until(client, server, [&] {
      server.poll([&](PeerId from, std::string&& f) {
        got = f;
        server.send(from, "pong");
      });
      return !got.empty();
    }));
    std::string back;
    ASSERT_TRUE(pump_until(client, server, [&] {
      client.poll([&](PeerId, std::string&& f) { back = f; });
      return !back.empty();
    }));
    EXPECT_EQ(back, "pong");
  }
  EXPECT_EQ(client.stats().epoll_ctls, client_ctls);
  EXPECT_EQ(server.stats().epoll_ctls, server_ctls);
  EXPECT_GT(client.stats().syscalls, 0u);
}

TEST(TcpTransport, EagainArmsEpolloutAndTheFrameStillArrives) {
  // A send() that returns EAGAIN leaves the frame queued and arms
  // EPOLLOUT; the writable event writes it and disarms again.
  TcpTransport server(1), client(0);
  ASSERT_TRUE(connect_quietly(server, client));
  static int eagains = 0;
  static auto real = script::support::io;
  script::support::io.send = [](int fd, const void* b, size_t l,
                                int f) -> ssize_t {
    if (eagains > 0) {
      --eagains;
      errno = EAGAIN;
      return -1;
    }
    return real.send(fd, b, l, f);
  };
  const auto ctls = client.stats().epoll_ctls;
  eagains = 1;
  EXPECT_TRUE(client.send(1, "after a full socket"));
  client.service();  // the flush meets EAGAIN
  EXPECT_EQ(eagains, 0);
  EXPECT_EQ(client.stats().epoll_ctls, ctls + 1) << "EPOLLOUT armed";
  std::vector<std::string> got;
  const bool ok = pump_until(client, server, [&] {
    server.poll([&](PeerId, std::string&& f) { got.push_back(f); });
    return !got.empty();
  });
  script::support::io = real;
  ASSERT_TRUE(ok);
  EXPECT_EQ(got[0], "after a full socket");
  EXPECT_EQ(client.stats().epoll_ctls, ctls + 2) << "EPOLLOUT disarmed";
  EXPECT_EQ(client.stats().disconnects, 0u) << "EAGAIN must not drop links";
}

}  // namespace
