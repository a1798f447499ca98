// perfbench — runs one benchmark workload against an embedded BlobSeer
// cluster and prints every metric by name with its unit and sample count,
// then one JSON line. See perfbench/README.md.
//
//   perfbench --workload=read_tcp|append_log|mixed_small --seed=N
//             --seconds=S --trace=0|1 --workdir=DIR [--commit=ID]
//
// Exit status: 0 = measured and every byte checked, 1 = a read returned
// wrong bytes (the JSON line says correct=false), 2 = could not run.
#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pagelog/io_backend.h"
#include "src/bench.h"

namespace {

#if !defined(NDEBUG)
constexpr const char* kBuildProblem =
    "assertions enabled (not a Release build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kBuildProblem = "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr const char* kBuildProblem = "sanitizer build";
#else
constexpr const char* kBuildProblem = nullptr;
#endif
#else
constexpr const char* kBuildProblem = nullptr;
#endif

std::string Flag(int argc, char** argv, const char* name,
                 const char* def = "") {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return argv[i] + prefix.size();
  }
  return def;
}

unsigned Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string Kernel() {
  struct utsname u {};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (kBuildProblem) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", kBuildProblem);
    return 2;
  }
  // Pin the environment: the program's default I/O backend, full-size runs.
  unsetenv("BLOBSEER_IO_BACKEND");
  unsetenv("BLOBSEER_BENCH_SMOKE");

  RunConfig cfg;
  cfg.workload = Flag(argc, argv, "workload");
  cfg.seed = std::strtoull(Flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  cfg.seconds = std::strtod(Flag(argc, argv, "seconds", "10").c_str(), nullptr);
  cfg.trace = Flag(argc, argv, "trace", "0") == "1";
  cfg.workdir = Flag(argc, argv, "workdir", ".");
  cfg.nproc = Nproc();
  if (cfg.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  WorkloadOutcome (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "read_tcp") run = RunReadTcp;
  if (cfg.workload == "append_log") run = RunAppendLog;
  if (cfg.workload == "mixed_small") run = RunMixedSmall;
  if (!run) {
    std::fprintf(stderr,
                 "perfbench: unknown --workload '%s' (read_tcp, append_log, "
                 "mixed_small)\n",
                 cfg.workload.c_str());
    return 2;
  }

  std::vector<std::pair<std::string, std::string>> record = {
      {"workload", cfg.workload},
      {"seed", std::to_string(cfg.seed)},
      {"seconds", Flag(argc, argv, "seconds", "10")},
      {"trace", cfg.trace ? "1" : "0"},
      {"slots", std::to_string(kSlots)},
      {"nproc", std::to_string(cfg.nproc)},
      {"kernel", Kernel()},
      {"io_uring", blobseer::pagelog::IoUringSupported() ? "supported"
                                                           : "unavailable"},
      {"build", "Release"},
      {"commit", Flag(argc, argv, "commit", "unknown")},
  };
  WorkloadOutcome o = run(cfg);
  record.insert(record.end(), o.record.begin(), o.record.end());

  std::printf("perfbench %s\n", cfg.workload.c_str());
  for (const auto& [k, v] : record)
    std::printf("  %-24s %s\n", k.c_str(), v.c_str());
  if (!o.error.empty()) {
    std::printf("perfbench: %s\n", o.error.c_str());
    std::fflush(stdout);
    return 2;
  }
  std::printf("metrics (%s run):\n%s", cfg.trace ? "traced" : "untraced",
              o.report.Human().c_str());
  std::printf("ops attempted %llu, failed %llu, wrong-byte reads %llu\n",
              (unsigned long long)o.attempted, (unsigned long long)o.failed,
              (unsigned long long)o.wrong_bytes);

  std::string rec = "{";
  for (size_t i = 0; i < record.size(); i++) {
    rec += (i ? ", \"" : "\"") + JsonEscape(record[i].first) + "\": \"" +
           JsonEscape(record[i].second) + "\"";
  }
  rec += "}";
  const bool correct = o.wrong_bytes == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s, \"record\": %s}\n",
      correct ? "true" : "false", (unsigned long long)o.attempted,
      (unsigned long long)(o.failed + o.wrong_bytes), o.report.Json().c_str(),
      rec.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
