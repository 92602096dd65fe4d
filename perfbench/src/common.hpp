// Shared pieces of the perfbench driver: host clock, latency samples,
// the metric report, the in-memory span recorder, and the two timing
// decorators that sit on libscript's abstract seams (runtime::Transport
// and lockdb::Wal). Everything here touches the library only through
// its public headers.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lockdb/wire_server.hpp"
#include "runtime/transport.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// The CPUs this process was allowed to run on at its first call.
inline const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  return cpus;
}

/// Pin process `pid` (0: the calling thread) to allowed CPU number `i`,
/// modulo their count.
///
/// On a shared host each CPU is slowed by its own neighbours, on and off
/// for seconds at a time, independently of the other CPUs. Every workload
/// runs on one CPU at a time and moves to the next one at every epoch or
/// phase, so that a run samples all of them and one busy neighbour cannot
/// set its speed.
inline void pin_to_cpu(std::size_t i, pid_t pid = 0) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[i % cpus.size()], &one);
  ::sched_setaffinity(pid, sizeof one, &one);
}

/// Peak resident set of this process so far, in MiB.
inline double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Host-time durations, kept in memory; nearest-rank percentiles.
class Samples {
 public:
  void add_ns(std::uint64_t ns) { us_.push_back(static_cast<float>(ns / 1e3)); }

  /// q in (0, 1]; 0 when empty.
  double pct_us(double q) const {
    if (us_.empty()) return 0;
    std::vector<float> v = us_;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t k = std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
  }

 private:
  std::vector<float> us_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Named metrics with units, printed as one JSON line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  void print(const std::string& workload, bool correct,
             std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                workload.c_str(), correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(m.first) ? m.first : 0.0, m.second.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// In-memory span recorder. A span is a named [start, end) host-time
/// interval taken around one call into a layer; only its duration is
/// kept, per name, which is all the per-layer numbers need. Recording
/// is off unless `on` is set, so untraced runs pay one branch.
class Tracer {
 public:
  bool on = false;

  void span(const char* name, std::uint64_t t0, std::uint64_t t1) {
    if (on) spans_[name].add_ns(t1 - t0);
  }
  const Samples& get(const std::string& name) const {
    static const Samples kEmpty;
    const auto it = spans_.find(name);
    return it == spans_.end() ? kEmpty : it->second;
  }

 private:
  std::map<std::string, Samples> spans_;
};

/// Times one call into a layer as a span, when the tracer is on.
class SpanGuard {
 public:
  SpanGuard(Tracer& tr, const char* name)
      : tr_(tr), name_(name), t0_(tr.on ? now_ns() : 0) {}
  ~SpanGuard() {
    if (tr_.on) tr_.span(name_, t0_, now_ns());
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& tr_;
  const char* name_;
  std::uint64_t t0_;
};

/// Busy and idle host time of a Transport's calls, summed.
struct TransportTimes {
  std::uint64_t send_ns = 0, poll_ns = 0, service_ns = 0, wait_ns = 0;
};

/// Transport decorator: forwards every call to `inner`, timing send /
/// poll / service (busy) while `timing` is set, and wait_io (idle).
/// Stacked directly over the backend, so its numbers are the backend's
/// own cost (syscalls for TCP, in-process queues for the sim twin).
class TimedTransport final : public script::runtime::Transport {
 public:
  explicit TimedTransport(script::runtime::Transport& inner) : inner_(&inner) {}

  bool timing = false;
  TransportTimes times;

  script::runtime::PeerId self() const override { return inner_->self(); }
  bool send(script::runtime::PeerId to, std::string frame) override {
    if (!timing) return inner_->send(to, std::move(frame));
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->send(to, std::move(frame));
    times.send_ns += now_ns() - t0;
    return ok;
  }
  std::size_t poll(const PollFn& fn) override {
    if (!timing) return inner_->poll(fn);
    // Frames are handed up through `fn` inside poll(); time only our
    // own part by pausing the clock around the callback.
    std::uint64_t upcall_ns = 0;
    const std::uint64_t t0 = now_ns();
    const std::size_t n =
        inner_->poll([&](script::runtime::PeerId from, std::string&& frame) {
          const std::uint64_t u0 = now_ns();
          fn(from, std::move(frame));
          upcall_ns += now_ns() - u0;
        });
    times.poll_ns += now_ns() - t0 - upcall_ns;
    return n;
  }
  void service() override {
    if (!timing) return inner_->service();
    const std::uint64_t t0 = now_ns();
    inner_->service();
    times.service_ns += now_ns() - t0;
  }
  // Idle time is always measured: two clock reads are noise next to a
  // call that may block for the pump's whole idle tick.
  void wait_io(int timeout_us) override {
    const std::uint64_t t0 = now_ns();
    inner_->wait_io(timeout_us);
    times.wait_ns += now_ns() - t0;
  }
  void kick(script::runtime::PeerId peer) override { inner_->kick(peer); }
  void slow_close(script::runtime::PeerId peer) override {
    inner_->slow_close(peer);
  }
  script::runtime::LinkState link_state(
      script::runtime::PeerId peer) const override {
    return inner_->link_state(peer);
  }
  std::vector<script::runtime::PeerId> peers() const override {
    return inner_->peers();
  }

 private:
  script::runtime::Transport* inner_;
};

/// Wal decorator: counts appends always, times them while `timing`.
class TimedWal final : public script::lockdb::Wal {
 public:
  explicit TimedWal(script::lockdb::Wal& inner) : inner_(&inner) {}

  bool timing = false;
  std::uint64_t appends = 0;
  std::uint64_t timed_appends = 0;
  std::uint64_t append_ns = 0;

  void append(const std::string& key, const std::string& value) override {
    ++appends;
    if (!timing) return inner_->append(key, value);
    const std::uint64_t t0 = now_ns();
    inner_->append(key, value);
    append_ns += now_ns() - t0;
    ++timed_appends;
  }
  std::optional<std::string> last(const std::string& key) const override {
    return inner_->last(key);
  }
  std::vector<std::pair<std::string, std::string>> all() const override {
    return inner_->all();
  }

 private:
  script::lockdb::Wal* inner_;
};

/// One measured slice of a run: an epoch (script_cycle, lockdb_sim) or
/// a phase (lockdb_tcp). Medians are taken across windows.
struct Window {
  bool traced = false;
  double seconds = 0;      // host time of the measured work
  std::uint64_t ops = 0;   // completed operations
  Samples a, b;            // latencies of the two operation kinds
};

/// End-to-end metrics from untraced windows, plus trace.overhead_pct
/// (untraced vs traced throughput) when both kinds exist.
///
/// Each metric is the median over windows: of throughput, and of each
/// window's latency percentile. Windows are short and many, so the
/// median averages over the host's swings in speed, which come and go
/// within a second.
inline void summarize(const std::vector<Window>& wins, const std::string& rate,
                      const std::string& a, const std::string& b,
                      Report& r) {
  std::vector<double> tput, traced_tput, a50, a99, b50, b99;
  std::fprintf(stderr, "perfbench: %s by window:", rate.c_str());
  for (const Window& w : wins) {
    const double t = ratio(static_cast<double>(w.ops), w.seconds);
    std::fprintf(stderr, " %.0f%s", t, w.traced ? "(traced)" : "");
    if (w.traced) {
      traced_tput.push_back(t);
      continue;
    }
    tput.push_back(t);
    a50.push_back(w.a.pct_us(0.50));
    a99.push_back(w.a.pct_us(0.99));
    b50.push_back(w.b.pct_us(0.50));
    b99.push_back(w.b.pct_us(0.99));
  }
  std::fprintf(stderr, "\n");
  r.set(rate, median(tput), "1/s");
  r.set(a + ".p50_us", median(a50), "us");
  r.set(a + ".p99_us", median(a99), "us");
  r.set(b + ".p50_us", median(b50), "us");
  r.set(b + ".p99_us", median(b99), "us");
  if (!traced_tput.empty())
    r.set("trace.overhead_pct",
          (ratio(median(tput), median(traced_tput)) - 1) * 100,
          "%");
}

/// Run-level settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir;   // lockdb_tcp WAL files live here
  std::string self_exe;  // replicas are forked from this binary
};

/// What one workload run hands back to main().
struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // correctness failures, for stderr
};

Outcome run_script_cycle(const RunConfig& cfg);
Outcome run_lockdb_sim(const RunConfig& cfg);
Outcome run_lockdb_tcp(const RunConfig& cfg);
/// Replica child process entry (argv after the "serve" word).
int serve_replica(int argc, char** argv);

}  // namespace perfbench
