// perfbench — end-to-end and per-layer host-time benchmark of libscript.
//
//   perfbench --workload <script_cycle|lockdb_sim|lockdb_tcp> --seed <n>
//             --seconds <s> --trace <0|1> [--tmp <dir>]
//   perfbench serve ...        (a lockdb_tcp replica; forked internally)
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"workload", "correct", "attempted", "failed", "metrics"}.
// Exit status 0 only when every correctness check held.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <script_cycle|lockdb_sim|lockdb_tcp> "
               "--seed <n> --seconds <s> --trace <0|1> [--tmp <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
    return perfbench::serve_replica(argc - 2, argv + 2);

  perfbench::RunConfig cfg;
  cfg.tmp_dir = ".";
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  cfg.self_exe = n > 0 ? std::string(exe, static_cast<std::size_t>(n)) : argv[0];
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload")
      cfg.workload = v;
    else if (k == "--seed")
      cfg.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds")
      cfg.seconds = std::strtod(v, nullptr);
    else if (k == "--trace")
      cfg.trace = std::strcmp(v, "0") != 0;
    else if (k == "--tmp")
      cfg.tmp_dir = v;
    else
      return usage(argv[0]);
  }
  if (argc % 2 == 0 || cfg.seconds <= 0) return usage(argv[0]);

  perfbench::Outcome out;
  try {
    if (cfg.workload == "script_cycle")
      out = perfbench::run_script_cycle(cfg);
    else if (cfg.workload == "lockdb_sim")
      out = perfbench::run_lockdb_sim(cfg);
    else if (cfg.workload == "lockdb_tcp")
      out = perfbench::run_lockdb_tcp(cfg);
    else
      return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& p : out.problems)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  const bool correct = out.problems.empty() && out.failed == 0;
  out.report.set("fail_ratio",
                 perfbench::ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted)),
                 "ratio");
  out.report.print(cfg.workload, correct, out.attempted, out.failed);
  return correct ? 0 : 1;
}
