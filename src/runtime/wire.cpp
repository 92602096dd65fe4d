#include "runtime/wire.hpp"

#include <algorithm>

namespace script::runtime {

Wire::Wire(Scheduler& sched, Transport& transport, PeerSupervisor* sup,
           Options opts)
    : sched_(&sched), transport_(&transport), sup_(sup), opts_(opts) {}

Wire::~Wire() { stop(); }

std::string Wire::encode(const std::string& tag, const std::string& payload) {
  std::string out;
  out.reserve(4 + tag.size() + payload.size());
  const auto n = static_cast<std::uint32_t>(tag.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  out += tag;
  out += payload;
  return out;
}

bool Wire::decode(const std::string& frame, std::string* tag,
                  std::string* payload) {
  if (frame.size() < 4) return false;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i)
    n |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(frame[i]))
         << (8 * i);
  if (frame.size() < 4 + static_cast<std::size_t>(n)) return false;
  tag->assign(frame, 4, n);
  payload->assign(frame, 4 + n, frame.size() - 4 - n);
  return true;
}

void Wire::start() {
  if (pump_ != kNoProcess) return;
  stopping_ = false;
  // Transport timing (delivery latencies, backoff, suspicion) runs on
  // the scheduler's virtual clock from here on.
  transport_->set_clock([s = sched_] { return s->now(); });
  pump_ = sched_->spawn("wire.pump", [this] { pump(); });
}

void Wire::stop() {
  stopping_ = true;
  // Waiters parked in recv() would never be woken once the pump exits;
  // fail them out now (recv returns false).
  for (Waiter* w : waiters_) sched_->unblock(w->pid);
  waiters_.clear();
}

void Wire::pump() {
  while (!stopping_) {
    if (sup_ != nullptr) sup_->tick();
    transport_->service();
    const std::size_t n =
        transport_->poll([this](PeerId from, std::string&& frame) {
          deliver(from, std::move(frame));
        });
    // Idle over a real backend: block this OS thread in epoll_wait so
    // the virtual clock ticks at most once per tick_us of real time.
    // (Sim backend: wait_io is a no-op; this loop is pure virtual time.)
    if (n == 0) transport_->wait_io(opts_.tick_us);
    sched_->sleep_for(1);
  }
  pump_ = kNoProcess;
}

void Wire::deliver(PeerId from, std::string&& frame) {
  Msg m;
  m.from = from;
  if (!decode(frame, &m.tag, &m.payload)) {
    ++shed_;  // unparseable: counted, never surfaced
    return;
  }
  // Hand to the first parked waiter that matches; FIFO among waiters
  // keeps delivery order deterministic.
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    Waiter* w = *it;
    if (w->tag != m.tag) continue;
    if (w->from != kNoPeer && w->from != from) continue;
    *w->out = std::move(m);
    w->filled = true;
    waiters_.erase(it);
    sched_->unblock(w->pid);
    return;
  }
  const std::size_t sz = m.tag.size() + m.payload.size();
  if (mailbox_bytes_ + sz > opts_.max_mailbox_bytes) {
    // Nobody is reading and the backlog is at the cap: shed, counted —
    // the same bounded-buffer discipline as every other queue here.
    ++shed_;
    return;
  }
  mailbox_bytes_ += sz;
  mailbox_.push_back(std::move(m));
  queued_ = mailbox_.size();
}

bool Wire::recv(const std::string& tag, Msg* out,
                std::uint64_t timeout_ticks, PeerId from) {
  // Mailbox first: oldest matching message.
  for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
    if (it->tag != tag) continue;
    if (from != kNoPeer && it->from != from) continue;
    mailbox_bytes_ -= it->tag.size() + it->payload.size();
    *out = std::move(*it);
    mailbox_.erase(it);
    queued_ = mailbox_.size();
    return true;
  }
  if (stopping_) return false;

  Waiter w{tag, from, out, sched_->current(), false};
  waiters_.push_back(&w);
  if (timeout_ticks == kNoTimeout) {
    sched_->block({"wire recv ", tag});
  } else {
    sched_->block_with_timeout({"wire recv ", tag}, timeout_ticks, [this, &w] {
      // Timeout fired before delivery: self-clean the registration so
      // the pump never fills a dead stack frame.
      waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), &w),
                     waiters_.end());
    });
  }
  if (!w.filled) {
    // Shutdown path (stop() unblocked us): drop the registration.
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), &w),
                   waiters_.end());
  }
  return w.filled;
}

bool Wire::post(PeerId to, const std::string& tag,
                const std::string& payload) {
  return transport_->send(to, encode(tag, payload));
}

}  // namespace script::runtime
