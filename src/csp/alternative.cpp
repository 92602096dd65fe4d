#include "csp/alternative.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace script::csp {

using detail::AltGroup;
using detail::Dir;
using detail::PendingOp;

int Alternative::add_branch(Dir dir, ProcessId peer,
                            std::vector<ProcessId> peer_set,
                            const std::string& tag, std::type_index type,
                            Message out_value,
                            std::function<void(ProcessId, Message&)> handler,
                            bool guard) {
  Branch b{dir,
           peer,
           std::move(peer_set),
           tag,
           type,
           std::move(out_value),
           std::move(handler),
           guard};
  branches_.push_back(std::move(b));
  return static_cast<int>(branches_.size()) - 1;
}

bool Alternative::branch_viable(const Branch& b) const {
  if (!b.guard) return false;
  if (b.peer != kAnyProcess) return !net_->is_terminated(b.peer);
  if (!b.peer_set.empty())
    return std::any_of(b.peer_set.begin(), b.peer_set.end(),
                       [&](ProcessId p) { return !net_->is_terminated(p); });
  return true;  // anonymous input never fails
}

int Alternative::select() {
  Net& net = *net_;
  const ProcessId me = net.scheduler().current();

  std::vector<int> viable;
  for (std::size_t i = 0; i < branches_.size(); ++i)
    if (branch_viable(branches_[i])) viable.push_back(static_cast<int>(i));
  if (viable.empty()) return kFailed;

  // Phase 1: is some branch ready right now? Collect (branch, parked-op)
  // candidate pairs and commit to one nondeterministically.
  struct Candidate {
    int branch;
    PendingOp* parked;
  };
  std::vector<Candidate> ready;
  std::vector<PendingOp*> matches;
  for (const int bi : viable) {
    const Branch& b = branches_[static_cast<std::size_t>(bi)];
    matches.clear();
    net.find_matches(b.dir, me, b.peer, b.peer_set, b.tag, b.type, matches);
    for (PendingOp* op : matches) ready.push_back({bi, op});
  }
  if (!ready.empty()) {
    const Candidate c =
        ready.size() == 1
            ? ready[0]
            : ready[net.scheduler().rng().pick_index(ready.size())];
    Branch& b = branches_[static_cast<std::size_t>(c.branch)];
    const ProcessId partner = c.parked->owner;
    Message payload =
        net.complete_with(c.parked, b.dir, std::move(b.out_value));
    b.handler(partner, payload);
    return c.branch;
  }

  // Phase 2: park every viable branch as one atomic group and wait.
  AltGroup group;
  group.owner = me;
  std::vector<PendingOp> ops(viable.size());
  for (std::size_t k = 0; k < viable.size(); ++k) {
    const int bi = viable[k];
    Branch& b = branches_[static_cast<std::size_t>(bi)];
    PendingOp& op = ops[k];
    op.dir = b.dir;
    op.owner = me;
    op.peer = b.peer;
    op.peer_set = b.peer_set;
    op.tag = b.tag;
    op.type = b.type;
    if (b.dir == Dir::Send) op.value = std::move(b.out_value);
    op.group = &group;
    op.branch = bi;
    group.ops.push_back(&op);
    net.link(&op);
  }
  // If a FaultPlan crash unwinds this fiber while parked, every branch
  // still linked must leave the Net with the stack it lives on. After a
  // normal wake the matcher has unlinked the whole group: no-op.
  struct GroupUnlinkGuard {
    Net* net;
    std::vector<PendingOp>* ops;
    ~GroupUnlinkGuard() {
      for (PendingOp& op : *ops)
        if (op.linked) net->unlink(&op);
    }
  };
  GroupUnlinkGuard guard{&net, &ops};
  net.scheduler().block(
      {"alternative (", std::to_string(viable.size()), " branches)"});

  if (group.all_failed) return kFailed;
  SCRIPT_ASSERT(group.chosen >= 0, "alternative woke without a choice");
  // Find the op that fired to recover the partner and payload.
  PendingOp* fired = nullptr;
  for (PendingOp& op : ops)
    if (op.branch == group.chosen && op.matched_with != kNoProcess)
      fired = &op;
  SCRIPT_ASSERT(fired != nullptr, "chosen alternative op not found");
  Branch& b = branches_[static_cast<std::size_t>(group.chosen)];
  b.handler(fired->matched_with, fired->value);
  return group.chosen;
}

std::size_t repetitive(Net& net,
                       const std::function<void(Alternative&)>& build) {
  std::size_t iterations = 0;
  for (;;) {
    Alternative alt(net);
    build(alt);
    if (alt.select() == Alternative::kFailed) return iterations;
    ++iterations;
  }
}

}  // namespace script::csp
