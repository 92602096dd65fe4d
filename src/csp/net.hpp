// CSP-style synchronous message passing.
//
// Reproduces the host-language substrate of the paper's §IV "Scripts in
// CSP": Hoare's "!" (output) and "?" (input) with strict mutual naming,
// plus the extensions the paper leans on —
//   * input from an anonymous partner (`recv_any`), the extension of
//     Francez [2] cited by the paper for the script supervisor p_s;
//   * distributed termination: communication with a terminated process
//     fails, which is what makes CSP repetitive commands (DO-OD) exit.
//
// A rendezvous only completes when both parties are committed; an
// optional LatencyModel charges virtual time to both parties at the
// moment of transfer, which is how the broadcast-strategy benches get a
// topology-shaped cost without a real network.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "csp/message.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_link.hpp"
#include "support/expected.hpp"

namespace script::csp {

using runtime::ProcessId;
using runtime::kNoProcess;
inline constexpr ProcessId kAnyProcess = kNoProcess;

enum class CommError : std::uint8_t {
  PeerTerminated,  // the named partner has finished (CSP failure rule)
  TimedOut,        // a *_for variant expired before the rendezvous
};

/// No deadline: *_for variants with this value behave like the plain ones.
inline constexpr std::uint64_t kNoTimeout =
    static_cast<std::uint64_t>(-1);

template <typename T>
using Result = support::Expected<T, CommError>;

namespace detail {

enum class Dir : std::uint8_t { Send, Recv };

struct AltGroup;
struct PendingOp;

/// Membership of one PendingOp in one of the Net's intrusive lists.
struct OpLinks {
  PendingOp* prev = nullptr;
  PendingOp* next = nullptr;
};

/// Head and tail of an intrusive list of parked offers. The links live
/// in the offers themselves, so parking allocates nothing.
struct OpList {
  PendingOp* head = nullptr;
  PendingOp* tail = nullptr;
};

// One posted communication offer, parked in the Net until matched.
struct PendingOp {
  Dir dir;
  ProcessId owner;           // the process that posted the offer
  ProcessId peer;            // named partner, or kAnyProcess (recv only)
  std::vector<ProcessId> peer_set;  // non-empty: any of these (recv only)
  std::string_view tag;      // the poster's own string, never copied
  std::type_index type{typeid(void)};
  Message value;             // payload (Send) or delivery slot (Recv)
  ProcessId matched_with = kNoProcess;  // filled on completion
  bool failed = false;       // peer terminated while parked
  bool linked = false;       // currently parked in the Net's index
  bool ghost = false;        // heap-owned in-flight duplicate (fault)
  AltGroup* group = nullptr; // non-null when part of an Alternative
  int branch = -1;           // branch index within the Alternative
  // ---- Net index, valid while linked ----
  std::uint64_t seq = 0;  // link order: FIFO among one owner's offers
  OpLinks by_owner;       // in the owner's list
  OpLinks by_peer;        // in the addressee's list, or the open list
};

// A blocked Alternative: all its branches are parked as one atomic group.
struct AltGroup {
  ProcessId owner;
  int chosen = -1;          // branch index that fired
  bool all_failed = false;  // every viable branch's peer terminated
  std::vector<PendingOp*> ops;
};

}  // namespace detail

class Alternative;

class Net {
 public:
  /// Registers a scheduler crash hook so a FaultPlan-killed process is
  /// treated exactly like a terminated one (CSP failure rule).
  explicit Net(runtime::Scheduler& sched);
  ~Net();

  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;

  /// Charge each completed rendezvous `model->latency(from, to)` ticks
  /// of virtual time to both parties. Pass nullptr to disable.
  void set_latency_model(runtime::LatencyModel* model) { latency_ = model; }

  // ---- Primitive communication commands (block the calling fiber) ----

  // Tags are viewed, never copied: the caller's string must outlive the
  // call (a parked offer points into it while its poster is blocked).

  /// Output command `to ! tag(value)`. Fails if `to` has terminated.
  template <typename T>
  Result<void> send(ProcessId to, std::string_view tag, T value) {
    return send_erased(to, tag, Message::of<T>(std::move(value)),
                       std::type_index(typeid(T)));
  }

  /// Input command `from ? tag(x)`. Fails if `from` has terminated.
  template <typename T>
  Result<T> recv(ProcessId from, std::string_view tag) {
    auto r = recv_erased(from, {}, tag, std::type_index(typeid(T)));
    if (!r) return support::make_unexpected(r.error());
    return r->second.template as<T>();
  }

  // ---- Timed variants (fault-tolerant protocols' building blocks) ----

  /// send() that gives up with CommError::TimedOut after `timeout_ticks`
  /// of virtual time with no willing receiver.
  template <typename T>
  Result<void> send_for(ProcessId to, std::string_view tag, T value,
                        std::uint64_t timeout_ticks) {
    return send_erased(to, tag, Message::of<T>(std::move(value)),
                       std::type_index(typeid(T)), timeout_ticks);
  }

  /// recv() that gives up with CommError::TimedOut after `timeout_ticks`.
  template <typename T>
  Result<T> recv_for(ProcessId from, std::string_view tag,
                     std::uint64_t timeout_ticks) {
    auto r = recv_erased(from, {}, tag, std::type_index(typeid(T)),
                         timeout_ticks);
    if (!r) return support::make_unexpected(r.error());
    return r->second.template as<T>();
  }

  /// Input from any partner (paper's unnamed-communication extension).
  /// Never fails; blocks until some process sends.
  template <typename T>
  Result<std::pair<ProcessId, T>> recv_any(std::string_view tag) {
    auto r = recv_erased(kAnyProcess, {}, tag, std::type_index(typeid(T)));
    if (!r) return support::make_unexpected(r.error());
    return std::pair<ProcessId, T>{r->first, r->second.template as<T>()};
  }

  /// Input from any of `candidates`; fails once all have terminated.
  template <typename T>
  Result<std::pair<ProcessId, T>> recv_from(
      std::vector<ProcessId> candidates, std::string_view tag) {
    auto r = recv_erased(kAnyProcess, std::move(candidates), tag,
                         std::type_index(typeid(T)));
    if (!r) return support::make_unexpected(r.error());
    return std::pair<ProcessId, T>{r->first, r->second.template as<T>()};
  }

  // ---- Polling (non-committal) variants ----

  /// Complete a rendezvous with an already-parked matching receiver;
  /// otherwise return false WITHOUT parking (never blocks beyond the
  /// transfer latency).
  template <typename T>
  bool try_send(ProcessId to, std::string_view tag, T value) {
    if (is_terminated(to)) return false;
    detail::PendingOp* pick =
        pick_match(detail::Dir::Send, sched_->current(), to, {}, tag,
                   std::type_index(typeid(T)));
    if (pick == nullptr) return false;
    complete_with(pick, detail::Dir::Send, Message::of<T>(std::move(value)));
    return true;
  }

  /// Take a message from an already-parked matching sender; otherwise
  /// return nullopt WITHOUT parking.
  template <typename T>
  std::optional<std::pair<ProcessId, T>> try_recv(ProcessId from,
                                                  std::string_view tag) {
    detail::PendingOp* pick =
        pick_match(detail::Dir::Recv, sched_->current(), from, {}, tag,
                   std::type_index(typeid(T)));
    if (pick == nullptr) return std::nullopt;
    const ProcessId sender = pick->owner;
    Message payload = complete_with(pick, detail::Dir::Recv, Message());
    return std::pair<ProcessId, T>{sender, payload.template as<T>()};
  }

  /// try_recv from any partner.
  template <typename T>
  std::optional<std::pair<ProcessId, T>> try_recv_any(
      std::string_view tag) {
    return try_recv<T>(kAnyProcess, tag);
  }

  // ---- Process lifecycle ----

  /// Declare `pid` terminated: all its parked offers are cancelled and
  /// every offer naming it as sole partner fails (wakes with error).
  /// Call at the end of a process body (see Process helper below).
  void mark_terminated(ProcessId pid);
  bool is_terminated(ProcessId pid) const;

  /// Fail every parked offer whose tag starts with `prefix` (owners wake
  /// with PeerTerminated) and discard matching in-flight duplicates.
  /// script::Instance aborts a performance by failing its scoped-tag
  /// namespace "<script>#<perf>/" in one sweep.
  void fail_tagged(const std::string& prefix);

  /// Re-point every parked offer under `prefix` that names `old_peer`
  /// (as sole partner or peer-set member) at `fresh` instead. Role
  /// takeover (FailurePolicy::Replace) uses this so survivors parked on
  /// the crashed incarnation's pid rendezvous with its replacement.
  /// Ghosts FROM the old pid are left alone (a dead sender's in-flight
  /// duplicate never delivers anyway).
  void rebind_peer(ProcessId old_peer, ProcessId fresh,
                   const std::string& prefix);

  /// Declare that `peer` will post no further offers under `prefix`:
  /// every parked offer there naming it as sole partner fails, and it is
  /// struck from peer sets (failing offers whose set empties out).
  /// script::Instance retires a COMPLETED role's pid this way under the
  /// Replace policy — a replacement incarnation may have re-posted an
  /// exchange its predecessor already concluded, and without this the
  /// orphaned offer would pend forever (the role's fiber is done, but
  /// not Net-terminated until the performance releases it).
  void retire_peer(ProcessId peer, const std::string& prefix);

  // ---- Introspection for tests and benches ----

  std::uint64_t rendezvous_count() const { return rendezvous_count_; }
  std::size_t pending_count() const { return pending_count_; }
  runtime::Scheduler& scheduler() { return *sched_; }

  /// Spawn a process whose termination is reported to this Net
  /// automatically (even if the body returns early).
  ProcessId spawn_process(std::string name, std::function<void()> body);

 private:
  friend class Alternative;

  Result<void> send_erased(ProcessId to, std::string_view tag,
                           Message value, std::type_index type,
                           std::uint64_t timeout_ticks = kNoTimeout);
  Result<std::pair<ProcessId, Message>> recv_erased(
      ProcessId from, std::vector<ProcessId> peer_set,
      std::string_view tag, std::type_index type,
      std::uint64_t timeout_ticks = kNoTimeout);

  /// Fail one parked offer: wake its owner with PeerTerminated (and
  /// collapse its Alternative group when every branch has failed).
  void fail_op(detail::PendingOp* op);

  /// Park a heap-owned duplicate of a just-delivered message; the
  /// receiver's next matching input takes it like any parked send.
  void add_ghost(ProcessId sender, ProcessId receiver, std::string_view tag,
                 std::type_index type, Message value);
  void free_ghost(detail::PendingOp* op);

  /// Nondeterministic choice among matching parked offers.
  detail::PendingOp* choose(const std::vector<detail::PendingOp*>& matches);

  // Matching helpers shared with Alternative. Parked offers are indexed
  // by owner (a send to P can only match offers OWNED by P) and by
  // addressee (an anonymous input can only match offers that name its
  // receiver, or that accept anyone), so every lookup touches the few
  // offers that could match, no matter how many are parked.
  bool op_matches(const detail::PendingOp& parked, detail::Dir my_dir,
                  ProcessId me, ProcessId my_peer,
                  const std::vector<ProcessId>& my_peer_set,
                  std::type_index type) const;
  /// Append every parked offer that matches to `out`, in the order the
  /// seeded choice draws over: named and anonymous lookups by owner
  /// ascending, then link order; peer-set lookups in set order.
  void find_matches(detail::Dir my_dir, ProcessId me, ProcessId my_peer,
                    const std::vector<ProcessId>& my_peer_set,
                    std::string_view tag, std::type_index type,
                    std::vector<detail::PendingOp*>& out);
  /// find_matches + choose, through a scratch buffer that keeps its
  /// capacity; nullptr when nothing matches.
  detail::PendingOp* pick_match(detail::Dir my_dir, ProcessId me,
                                ProcessId my_peer,
                                const std::vector<ProcessId>& my_peer_set,
                                std::string_view tag, std::type_index type);
  /// Park / unpark an offer in the index.
  void link(detail::PendingOp* op);
  void unlink(detail::PendingOp* op);
  /// The addressee's list, or the open list for kAnyProcess offers.
  detail::OpList& peer_list(const detail::PendingOp& op);

  /// Collect parked offers whose tag starts with `prefix`, sorted the
  /// way a sweep (termination, abort, retirement) visits them: tag,
  /// then owner, then link order. PeerAndSets takes the offers naming
  /// `peer` plus every peer-set offer; All takes every parked offer.
  enum class Sweep : std::uint8_t { PeerAndSets, All };
  std::vector<detail::PendingOp*> collect(Sweep what, ProcessId peer,
                                          std::string_view prefix);

  /// Complete the rendezvous between the running fiber and a parked op:
  /// transfers the payload, unlinks the parked op (and collapses its
  /// alt group), wakes the parked owner, and charges latency to both
  /// sides. Returns the payload seen by the running party.
  Message complete_with(detail::PendingOp* parked, detail::Dir my_dir,
                        Message my_value);

  void remove_group_ops(detail::AltGroup* group);
  std::uint64_t charge_latency(ProcessId a, ProcessId b);

  runtime::Scheduler* sched_;
  runtime::LatencyModel* latency_ = nullptr;
  // Raw pointers: each PendingOp lives on its poster's fiber stack, which
  // is pinned while the poster is blocked; the matcher unlinks it before
  // waking the poster.
  std::vector<detail::OpList> by_owner_;  // indexed by ProcessId
  std::vector<detail::OpList> by_peer_;   // offers naming that ProcessId
  detail::OpList open_[2];  // kAnyProcess offers, indexed by Dir
  std::uint64_t link_seq_ = 0;
  std::size_t pending_count_ = 0;
  std::vector<detail::PendingOp*> matches_;  // pick_match scratch
  std::vector<bool> terminated_;  // indexed by ProcessId
  std::uint64_t rendezvous_count_ = 0;
  // In-flight duplicates (FaultPlan::duplicate_message) are the one kind
  // of parked op with no fiber stack to live on; the Net owns them, with
  // the tag they view.
  struct Ghost {
    std::string tag;
    detail::PendingOp op;
  };
  std::vector<std::unique_ptr<Ghost>> ghosts_;
  std::uint64_t crash_hook_id_ = 0;
};

}  // namespace script::csp
