#include "csp/net.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace script::csp {

using detail::AltGroup;
using detail::Dir;
using detail::OpLinks;
using detail::OpList;
using detail::PendingOp;

namespace {

// Unparks a posted offer if the posting fiber unwinds while it is still
// linked (a FaultPlan crash killing a blocked communicator). On normal
// wake-ups the matcher has already unlinked the op and this is a no-op.
struct UnlinkGuard {
  Net* net;
  PendingOp* op;
  void (Net::*unlink)(PendingOp*);
  ~UnlinkGuard() {
    if (op->linked) (net->*unlink)(op);
  }
};

template <OpLinks PendingOp::*L>
void list_push(OpList& list, PendingOp* op) {
  (op->*L).prev = list.tail;
  (op->*L).next = nullptr;
  if (list.tail != nullptr)
    (list.tail->*L).next = op;
  else
    list.head = op;
  list.tail = op;
}

template <OpLinks PendingOp::*L>
void list_erase(OpList& list, PendingOp* op) {
  OpLinks& links = op->*L;
  if (links.prev != nullptr)
    (links.prev->*L).next = links.next;
  else
    list.head = links.next;
  if (links.next != nullptr)
    (links.next->*L).prev = links.prev;
  else
    list.tail = links.prev;
  links = OpLinks{};
}

/// lists[pid], growing the index to cover every process spawned so far
/// (`spawned`) at once: a steady state never grows it again.
OpList& grow_to(std::vector<OpList>& lists, ProcessId pid,
                std::size_t spawned) {
  if (pid >= lists.size())
    lists.resize(std::max<std::size_t>(pid + 1, spawned));
  return lists[pid];
}

bool by_owner_then_seq(const PendingOp* a, const PendingOp* b) {
  return a->owner != b->owner ? a->owner < b->owner : a->seq < b->seq;
}

}  // namespace

Net::Net(runtime::Scheduler& sched) : sched_(&sched) {
  crash_hook_id_ = sched_->add_crash_hook(
      [this](ProcessId pid) { mark_terminated(pid); });
}

Net::~Net() { sched_->remove_crash_hook(crash_hook_id_); }

ProcessId Net::spawn_process(std::string name, std::function<void()> body) {
  return sched_->spawn(std::move(name), [this, body = std::move(body)] {
    body();
    mark_terminated(sched_->current());
  });
}

bool Net::is_terminated(ProcessId pid) const {
  return pid < terminated_.size() && terminated_[pid];
}

OpList& Net::peer_list(const PendingOp& op) {
  return op.peer == kAnyProcess ? open_[static_cast<int>(op.dir)]
                                : grow_to(by_peer_, op.peer,
                                          sched_->spawned_count());
}

void Net::link(PendingOp* op) {
  op->seq = link_seq_++;
  list_push<&PendingOp::by_owner>(
      grow_to(by_owner_, op->owner, sched_->spawned_count()), op);
  list_push<&PendingOp::by_peer>(peer_list(*op), op);
  op->linked = true;
  ++pending_count_;
}

void Net::unlink(PendingOp* op) {
  SCRIPT_ASSERT(op->linked, "unlink: op not parked");
  list_erase<&PendingOp::by_owner>(by_owner_[op->owner], op);
  list_erase<&PendingOp::by_peer>(peer_list(*op), op);
  op->linked = false;
  --pending_count_;
}

std::vector<PendingOp*> Net::collect(Sweep what, ProcessId peer,
                                     std::string_view prefix) {
  std::vector<PendingOp*> out;
  auto take = [&](PendingOp* op) {
    if (op->tag.substr(0, prefix.size()) == prefix) out.push_back(op);
  };
  if (what == Sweep::All) {
    for (const OpList& list : by_owner_)
      for (PendingOp* op = list.head; op != nullptr; op = op->by_owner.next)
        take(op);
  } else {
    if (peer < by_peer_.size())
      for (PendingOp* op = by_peer_[peer].head; op != nullptr;
           op = op->by_peer.next)
        take(op);
    for (const OpList& list : open_)
      for (PendingOp* op = list.head; op != nullptr; op = op->by_peer.next)
        if (!op->peer_set.empty()) take(op);
  }
  std::sort(out.begin(), out.end(),
            [](const PendingOp* a, const PendingOp* b) {
              if (const int c = a->tag.compare(b->tag); c != 0) return c < 0;
              return by_owner_then_seq(a, b);
            });
  return out;
}

void Net::mark_terminated(ProcessId pid) {
  if (pid >= terminated_.size()) terminated_.resize(pid + 1, false);
  if (terminated_[pid]) return;
  terminated_[pid] = true;

  if (pid < by_owner_.size())
    for (const PendingOp* op = by_owner_[pid].head; op != nullptr;
         op = op->by_owner.next)
      SCRIPT_ASSERT(op->ghost,
                    "process terminated while it still has parked offers");

  // Fail every parked offer whose partner(s) can no longer arrive: the
  // ones naming `pid`, and peer-set offers whose whole set is now gone.
  // Collect first: failing an alt branch unlinks sibling ops.
  for (PendingOp* op : collect(Sweep::PeerAndSets, pid, {})) {
    if (!op->linked)
      continue;  // already removed (e.g. sibling of a failed alt branch)
    if (op->ghost) {
      // A duplicate TO the dead process can never be taken; one FROM it
      // is already in flight and stays deliverable.
      if (op->peer == pid) {
        unlink(op);
        free_ghost(op);
      }
      continue;
    }
    bool dead = false;
    if (op->peer != kAnyProcess) {
      dead = op->peer == pid;
    } else if (!op->peer_set.empty()) {
      dead = std::all_of(op->peer_set.begin(), op->peer_set.end(),
                         [&](ProcessId p) { return is_terminated(p); });
    }
    if (dead) fail_op(op);
  }
}

void Net::fail_op(PendingOp* op) {
  if (op->group == nullptr) {
    op->failed = true;
    unlink(op);
    sched_->unblock(op->owner);
  } else {
    AltGroup* g = op->group;
    unlink(op);
    g->ops.erase(std::find(g->ops.begin(), g->ops.end(), op));
    if (g->ops.empty()) {
      g->all_failed = true;
      sched_->unblock(g->owner);
    }
  }
}

void Net::fail_tagged(const std::string& prefix) {
  for (PendingOp* op : collect(Sweep::All, kNoProcess, prefix)) {
    if (!op->linked) continue;  // sibling of a failed alt branch
    if (op->ghost) {
      unlink(op);
      free_ghost(op);
      continue;
    }
    fail_op(op);
  }
}

void Net::rebind_peer(ProcessId old_peer, ProcessId fresh,
                      const std::string& prefix) {
  for (PendingOp* op : collect(Sweep::PeerAndSets, old_peer, prefix)) {
    if (op->ghost) continue;
    if (op->peer == old_peer) {
      // Re-file under the new addressee.
      list_erase<&PendingOp::by_peer>(peer_list(*op), op);
      op->peer = fresh;
      list_push<&PendingOp::by_peer>(peer_list(*op), op);
    }
    std::replace(op->peer_set.begin(), op->peer_set.end(), old_peer, fresh);
  }
}

void Net::retire_peer(ProcessId peer, const std::string& prefix) {
  // Collect first: fail_op unlinks, which mutates the index.
  for (PendingOp* op : collect(Sweep::PeerAndSets, peer, prefix)) {
    if (!op->linked || op->ghost) continue;
    if (op->owner == peer) continue;
    if (op->peer == peer) {
      fail_op(op);
      continue;
    }
    const auto member =
        std::find(op->peer_set.begin(), op->peer_set.end(), peer);
    if (member == op->peer_set.end()) continue;
    op->peer_set.erase(member);
    if (op->peer_set.empty()) fail_op(op);
  }
}

void Net::add_ghost(ProcessId sender, ProcessId receiver,
                    std::string_view tag, std::type_index type,
                    Message value) {
  auto g = std::make_unique<Ghost>();
  g->tag = std::string(tag);
  PendingOp& op = g->op;
  op.dir = Dir::Send;
  op.owner = sender;
  op.peer = receiver;
  op.tag = g->tag;
  op.type = type;
  op.value = std::move(value);
  op.ghost = true;
  link(&op);
  if (sched_->bus().wants(obs::Subsystem::Fault))
    sched_->bus().publish({obs::EventKind::Instant, obs::Subsystem::Fault,
                           obs::kAutoTime, sender, obs::kNoLane,
                           "fault.duplicate", g->tag});
  ghosts_.push_back(std::move(g));
}

void Net::free_ghost(PendingOp* op) {
  const auto it = std::find_if(
      ghosts_.begin(), ghosts_.end(),
      [op](const std::unique_ptr<Ghost>& g) { return &g->op == op; });
  SCRIPT_ASSERT(it != ghosts_.end(), "free_ghost: not a ghost op");
  ghosts_.erase(it);
}

PendingOp* Net::choose(const std::vector<PendingOp*>& matches) {
  return matches.size() == 1
             ? matches[0]
             : matches[sched_->rng().pick_index(matches.size())];
}

PendingOp* Net::pick_match(Dir my_dir, ProcessId me, ProcessId my_peer,
                           const std::vector<ProcessId>& my_peer_set,
                           std::string_view tag, std::type_index type) {
  matches_.clear();
  find_matches(my_dir, me, my_peer, my_peer_set, tag, type, matches_);
  return matches_.empty() ? nullptr : choose(matches_);
}

Result<void> Net::send_erased(ProcessId to, std::string_view tag,
                              Message value, std::type_index type,
                              std::uint64_t timeout_ticks) {
  const ProcessId me = sched_->current();
  if (is_terminated(to))
    return support::make_unexpected(CommError::PeerTerminated);

  if (PendingOp* pick = pick_match(Dir::Send, me, to, {}, tag, type)) {
    runtime::FaultPlan* plan = sched_->fault_plan();
    if (plan != nullptr && plan->has_message_faults() &&
        plan->should_drop(tag)) {
      // Lost at the transfer instant: the sender believes it delivered
      // (and pays latency); the receiver keeps waiting.
      const std::uint64_t lat = charge_latency(me, pick->owner);
      if (sched_->bus().wants(obs::Subsystem::Fault))
        sched_->bus().publish({obs::EventKind::Instant,
                               obs::Subsystem::Fault, obs::kAutoTime, me,
                               obs::kNoLane, "fault.drop", std::string(tag)});
      if (lat > 0) sched_->sleep_for(lat);
      return {};
    }
    complete_with(pick, Dir::Send, std::move(value));
    return {};
  }

  PendingOp op;
  op.dir = Dir::Send;
  op.owner = me;
  op.peer = to;
  op.tag = tag;
  op.type = type;
  op.value = std::move(value);
  UnlinkGuard guard{this, &op, &Net::unlink};
  link(&op);
  const runtime::BlockReason reason{"! ", sched_->name_of(to), " tag=", tag};
  if (timeout_ticks == kNoTimeout) {
    sched_->block(reason, to);
  } else {
    const bool expired = sched_->block_with_timeout(
        reason, timeout_ticks,
        [this, p = &op] {
          if (p->linked) unlink(p);
        },
        to);
    if (expired) return support::make_unexpected(CommError::TimedOut);
  }
  if (op.failed) return support::make_unexpected(CommError::PeerTerminated);
  return {};
}

Result<std::pair<ProcessId, Message>> Net::recv_erased(
    ProcessId from, std::vector<ProcessId> peer_set, std::string_view tag,
    std::type_index type, std::uint64_t timeout_ticks) {
  const ProcessId me = sched_->current();
  runtime::FaultPlan* plan = sched_->fault_plan();
  const bool faulty = plan != nullptr && plan->has_message_faults();

  // Deliverable parked offers are taken before the terminated checks: an
  // in-flight duplicate from a since-dead sender must still arrive (it
  // already left that sender). Non-ghost offers from terminated owners
  // cannot exist, so this reordering only affects ghosts.
  while (PendingOp* pick =
             pick_match(Dir::Recv, me, from, peer_set, tag, type)) {
    if (faulty && !pick->ghost && plan->should_drop(tag)) {
      // Complete the parked send so the sender believes it delivered,
      // then lose the payload; keep looking (or park below).
      if (sched_->bus().wants(obs::Subsystem::Fault))
        sched_->bus().publish({obs::EventKind::Instant,
                               obs::Subsystem::Fault, obs::kAutoTime, me,
                               obs::kNoLane, "fault.drop", std::string(tag)});
      complete_with(pick, Dir::Recv, Message());
      continue;
    }
    const ProcessId sender = pick->owner;
    Message payload = complete_with(pick, Dir::Recv, Message());
    return std::pair<ProcessId, Message>{sender, std::move(payload)};
  }

  if (from != kAnyProcess && is_terminated(from))
    return support::make_unexpected(CommError::PeerTerminated);
  if (from == kAnyProcess && !peer_set.empty() &&
      std::all_of(peer_set.begin(), peer_set.end(),
                  [&](ProcessId p) { return is_terminated(p); }))
    return support::make_unexpected(CommError::PeerTerminated);

  PendingOp op;
  op.dir = Dir::Recv;
  op.owner = me;
  op.peer = from;
  op.peer_set = std::move(peer_set);
  op.tag = tag;
  op.type = type;
  UnlinkGuard guard{this, &op, &Net::unlink};
  link(&op);
  const std::string_view who = from == kAnyProcess
                                   ? std::string_view("any")
                                   : std::string_view(sched_->name_of(from));
  const runtime::BlockReason reason{"? ", who, " tag=", tag};
  const ProcessId hint = from == kAnyProcess ? kNoProcess : from;
  if (timeout_ticks == kNoTimeout) {
    sched_->block(reason, hint);
  } else {
    const bool expired = sched_->block_with_timeout(
        reason, timeout_ticks,
        [this, p = &op] {
          if (p->linked) unlink(p);
        },
        hint);
    if (expired) return support::make_unexpected(CommError::TimedOut);
  }
  if (op.failed) return support::make_unexpected(CommError::PeerTerminated);
  return std::pair<ProcessId, Message>{op.matched_with, std::move(op.value)};
}

bool Net::op_matches(const PendingOp& parked, Dir my_dir, ProcessId me,
                     ProcessId my_peer,
                     const std::vector<ProcessId>& my_peer_set,
                     std::type_index type) const {
  if (parked.dir == my_dir) return false;
  if (parked.type != type) return false;

  // The parked offer must accept me as its partner...
  const bool parked_accepts_me =
      parked.peer == me ||
      (parked.peer == kAnyProcess &&
       (parked.peer_set.empty() ||
        std::find(parked.peer_set.begin(), parked.peer_set.end(), me) !=
            parked.peer_set.end()));
  if (!parked_accepts_me) return false;

  // ...and I must accept the parked owner as mine.
  return my_peer == parked.owner ||
         (my_peer == kAnyProcess &&
          (my_peer_set.empty() ||
           std::find(my_peer_set.begin(), my_peer_set.end(),
                     parked.owner) != my_peer_set.end()));
}

void Net::find_matches(Dir my_dir, ProcessId me, ProcessId my_peer,
                       const std::vector<ProcessId>& my_peer_set,
                       std::string_view tag, std::type_index type,
                       std::vector<PendingOp*>& out) {
  auto consider = [&](PendingOp* op) {
    if (op->tag == tag &&
        op_matches(*op, my_dir, me, my_peer, my_peer_set, type))
      out.push_back(op);
  };
  auto scan_owner = [&](ProcessId owner) {
    if (owner >= by_owner_.size()) return;
    for (PendingOp* op = by_owner_[owner].head; op != nullptr;
         op = op->by_owner.next)
      consider(op);
  };
  if (my_peer != kAnyProcess) {
    scan_owner(my_peer);  // a match can only be owned by my named peer
  } else if (!my_peer_set.empty()) {
    for (const ProcessId p : my_peer_set) scan_owner(p);
  } else {
    // Anonymous: a match must name me, or accept anyone.
    const auto first = static_cast<std::ptrdiff_t>(out.size());
    if (me < by_peer_.size())
      for (PendingOp* op = by_peer_[me].head; op != nullptr;
           op = op->by_peer.next)
        consider(op);
    const int other = my_dir == Dir::Send ? static_cast<int>(Dir::Recv)
                                          : static_cast<int>(Dir::Send);
    for (PendingOp* op = open_[other].head; op != nullptr;
         op = op->by_peer.next)
      consider(op);
    std::sort(out.begin() + first, out.end(), by_owner_then_seq);
  }
}

Message Net::complete_with(PendingOp* parked, Dir my_dir, Message my_value) {
  const ProcessId me = sched_->current();
  runtime::FaultPlan* plan = sched_->fault_plan();
  const bool faulty = plan != nullptr && plan->has_message_faults();

  if (parked->ghost) {
    // Taking an in-flight duplicate: there is no partner to wake; only
    // the receiver pays the hop latency.
    SCRIPT_ASSERT(my_dir == Dir::Recv, "ghost matched by a send");
    Message result = std::move(parked->value);
    const ProcessId sender = parked->owner;
    const std::string tag(parked->tag);
    unlink(parked);
    free_ghost(parked);
    // The duplicate's payload still carries the (dead) sender's causal
    // past into the receiver.
    sched_->causal_edge(sender, me, "msg");
    const std::uint64_t lat = charge_latency(sender, me);
    if (sched_->bus().wants(obs::Subsystem::Fault))
      sched_->bus().publish({obs::EventKind::Instant, obs::Subsystem::Fault,
                             obs::kAutoTime, me, obs::kNoLane,
                             "fault.duplicate.delivered", tag});
    if (lat > 0) sched_->sleep_for(lat);
    return result;
  }

  Message result;
  if (my_dir == Dir::Send) {
    parked->value = std::move(my_value);  // deliver into the parked recv
  } else {
    result = std::move(parked->value);  // take from the parked send
  }
  parked->matched_with = me;
  ++rendezvous_count_;

  if (parked->group != nullptr) {
    parked->group->chosen = parked->branch;
    remove_group_ops(parked->group);
  } else {
    unlink(parked);
  }

  const ProcessId sender = my_dir == Dir::Send ? me : parked->owner;
  const ProcessId receiver = my_dir == Dir::Send ? parked->owner : me;
  std::uint64_t lat = charge_latency(sender, receiver);
  if (faulty) {
    // The op is unlinked but still valid (it lives on the owner's pinned
    // fiber stack), so the payload can be copied for a duplicate.
    if (const std::uint64_t extra = plan->extra_delay(parked->tag);
        extra > 0) {
      lat += extra;
      if (sched_->bus().wants(obs::Subsystem::Fault))
        sched_->bus().publish({obs::EventKind::Instant,
                               obs::Subsystem::Fault, obs::kAutoTime,
                               sender, obs::kNoLane, "fault.delay",
                               std::string(parked->tag),
                               static_cast<double>(extra)});
    }
    if (plan->should_duplicate(parked->tag))
      add_ghost(sender, receiver, parked->tag, parked->type,
                my_dir == Dir::Send ? parked->value : result);
  }
  if (sched_->bus().wants(obs::Subsystem::Csp))
    sched_->bus().publish({obs::EventKind::Instant, obs::Subsystem::Csp,
                           obs::kAutoTime, sender, obs::kNoLane,
                           "rendezvous", std::string(parked->tag),
                           static_cast<double>(lat)});
  // Completing a parked SEND hands its payload to me: a data-flow edge
  // the wake below (me -> sender) does not cover.
  if (my_dir == Dir::Recv) sched_->causal_edge(parked->owner, me, "msg");
  const ProcessId woken =
      parked->group != nullptr ? parked->group->owner : parked->owner;
  sched_->wake_at(woken, lat);
  if (lat > 0) sched_->sleep_for(lat);
  return result;
}

void Net::remove_group_ops(AltGroup* group) {
  for (PendingOp* op : group->ops) unlink(op);
}

std::uint64_t Net::charge_latency(ProcessId a, ProcessId b) {
  return latency_ == nullptr ? 0 : latency_->latency(a, b);
}

}  // namespace script::csp
