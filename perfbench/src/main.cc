// zht_perfbench: the ZHT benchmark driver.
//
//   zht_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --data-root DIR [--trace-out FILE]
//   zht_perfbench --selftest --data-root DIR
//
// Prints human-readable notes on stderr and, as the last line of stdout,
// one JSON object with every metric the run measured. perfbench/run.py
// builds this binary and publishes the metrics BENCHMARK.json names.
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/log.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

void PrintJson(const RunResult& r) {
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintNotes(const std::string& workload, const RunResult& r) {
  std::fprintf(stderr, "[%s] attempted %llu failed %llu\n", workload.c_str(),
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "  note: %s\n", note.c_str());
  }
}

// --- self-tests of the benchmark itself ---

bool Check(bool ok, const char* what) {
  std::fprintf(stderr, "%s  %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

zht::Result<RunResult> RunShort(const perfbench::WorkloadSpec& spec,
                                RunOptions options) {
  options.setups = 1;
  auto result = perfbench::RunWorkload(spec, options);
  if (result.ok()) PrintNotes(spec.name, *result);
  return result;
}

zht::Result<RunResult> RunShort(const char* workload, RunOptions options) {
  return RunShort(*perfbench::FindWorkload(workload), std::move(options));
}

int SelfTest(const RunOptions& base) {
  bool ok = true;

  // Span arithmetic: self time plus the union of (overlapping, clipped)
  // children is exactly the parent.
  {
    const std::vector<std::pair<std::int64_t, std::int64_t>> children = {
        {10, 30}, {20, 40}, {90, 120}, {-5, 5}};
    const std::int64_t covered = perfbench::CoveredNs(0, 100, children);
    const std::int64_t self = perfbench::SelfNs(0, 100, children);
    ok &= Check(covered == 45 && self == 55 && self + covered == 100,
                "span-sum: self + covered children == parent (synthetic)");
  }

  RunOptions options = base;
  options.seconds = 1;

  // A clean run checks clean.
  {
    auto r = RunShort("meta-zipf", options);
    ok &= Check(r.ok() && r->failed == 0 && r->attempted > 0,
                "clean meta-zipf run reports no failed ops");
  }

  // Teeth: stale reads must be caught by the model.
  {
    RunOptions o = options;
    o.faults.stale_get_every = 50;
    auto r = RunShort("meta-zipf", o);
    ok &= Check(r.ok() && r->failed > 0 &&
                    r->metrics.at("failed_ratio").value > 0,
                "a store serving 1 in 50 gets stale drives failed_ratio > 0");
  }

  // A resent remove whose first attempt applied answers kNotFound; the
  // model must accept that, not count it as a failed op.
  {
    RunOptions o = options;
    o.faults.lose_remove_reply_every = 4;
    auto r = RunShort("meta-zipf", o);
    ok &= Check(r.ok() && r->failed == 0 && r->resent_removes > 0,
                "a remove resent after a lost reply is not a failed op");
  }

  // Traced run: every joined parent span sums to self + children.
  {
    RunOptions o = options;
    o.trace = true;
    auto r = RunShort("meta-zipf", o);
    ok &= Check(r.ok() && r->spans_sum && r->failed == 0 &&
                    r->metrics.count("server.self_us.p50") &&
                    r->metrics.at("trace.spans").value > 0,
                "span-sum: client and server spans == self + children (traced)");
  }

  // Resurrections on rebalance are failed ops, not an abort. First the
  // workload with a depart after each join, on persistent stores as
  // durable-r1 deploys them: at the time of writing join→depart brings
  // removed keys back there, and the count is printed. Then the benchmark's
  // rebalance with 1 in 4 removes acknowledged but skipped by the store, so
  // removed keys stay readable exactly as resurrected ones do: they must be
  // counted.
  {
    RunOptions o = options;
    o.seconds = 3;
    perfbench::WorkloadSpec persistent = *perfbench::FindWorkload("rebalance");
    persistent.persistent = true;
    persistent.depart_after_join = true;
    auto genuine = RunShort(persistent, o);
    if (genuine.ok()) {
      std::fprintf(stderr,
                   "INFO  rebalance with departs on persistent stores: %llu "
                   "failed ops\n",
                   static_cast<unsigned long long>(genuine->failed));
    }
    o.faults.skip_remove_every = 4;
    auto r = RunShort("rebalance", o);
    ok &= Check(genuine.ok() && r.ok() && r->failed > 0 &&
                    r->metrics.at("rebalance_s").value > 0,
                "rebalance counts resurrected keys as failed ops");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A response written to a client that timed out raises SIGPIPE in the
  // server's front end; the benchmark counts the op as failed instead.
  std::signal(SIGPIPE, SIG_IGN);
  // durable-r1 opens two descriptors per partition store (over 8K), so
  // take the whole hard limit.
  rlimit files{};
  if (::getrlimit(RLIMIT_NOFILE, &files) == 0) {
    files.rlim_cur = files.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &files);
  }
  zht::Logger::Instance().SetLevel(zht::LogLevel::kError);

  RunOptions options;
  std::string workload;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--seed") options.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::strtod(value().c_str(), nullptr);
    else if (arg == "--trace") options.trace = value() == "1";
    else if (arg == "--data-root") options.data_root = value();
    else if (arg == "--trace-out") options.trace_out = value();
    else if (arg == "--selftest") selftest = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.data_root.empty()) {
    std::fprintf(stderr, "--data-root is required\n");
    return 2;
  }
  if (selftest) return SelfTest(options);

  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr || options.seconds <= 0) {
    std::fprintf(stderr, "unknown workload '%s'; one of:", workload.c_str());
    for (const std::string& name : perfbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  auto result = perfbench::RunWorkload(*spec, options);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  PrintNotes(workload, *result);
  PrintJson(*result);
  return 0;
}
