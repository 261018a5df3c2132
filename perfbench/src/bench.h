// One benchmark run of one workload: seeded inputs, repeated set-up,
// closed-loop load with model checks, audits, and the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_root;   // scratch directory for persistent stores
  std::string trace_out;   // traced run: span dump path ("" = none)
  int setups = 0;          // set-ups per run (0 = by workload); setup_s
                           // is their median
  Faults faults;      // self-tests only
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Resent removes that answered kNotFound for a key the model held: the
  // first attempt applied, so they are not failed ops.
  std::uint64_t resent_removes = 0;
  // Every metric this run measured, by name (end-to-end names in untraced
  // runs, layer names in traced runs).
  std::map<std::string, Metric> metrics;
  // Human-readable notes (sample counts, unmeasured boundaries).
  std::vector<std::string> notes;
  // Traced runs: the span-sum invariant held for every joined parent.
  bool spans_sum = true;
};

zht::Result<RunResult> RunWorkload(const WorkloadSpec& spec,
                                   const RunOptions& options);

}  // namespace perfbench
