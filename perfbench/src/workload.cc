#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/rng.h"

namespace perfbench {

namespace {

// Why each workload exists is in perfbench/README.md.
std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec meta;
  meta.name = "meta-zipf";
  meta.instances = 1;
  meta.reactors = 2;
  meta.hot_cache_entries = 4096;
  meta.keys_per_thread = 50'000;
  meta.zipf = 0.99;
  meta.dir_keys_per_thread = 1024;
  meta.mix[kLookup] = 0.60;
  meta.mix[kInsert] = 0.25;
  meta.mix[kAppend] = 0.10;
  meta.mix[kRemove] = 0.05;
  out.push_back(meta);

  WorkloadSpec durable;
  durable.name = "durable-r1";
  durable.instances = 2;
  durable.persistent = true;
  durable.replicas = 1;
  durable.keys_per_thread = 10'000;
  durable.mix[kLookup] = 0.35;
  durable.mix[kInsert] = 0.40;
  durable.mix[kAppend] = 0.15;
  durable.mix[kRemove] = 0.10;
  out.push_back(durable);

  // Two instances with one replica and one model-checked background client
  // while the driver joins new instances. In-memory stores and no departs:
  // on persistent stores join→depart brings removed keys back, and a
  // depart serves partitions before they arrive (README.md), while the
  // benchmark's workloads must run without failing ops.
  WorkloadSpec rebalance = durable;
  rebalance.name = "rebalance";
  rebalance.persistent = false;
  rebalance.threads = 1;
  rebalance.keys_per_thread = 20'000;
  rebalance.joins = 2;
  rebalance.client_max_attempts = 256;
  rebalance.client_op_timeout_ms = 2000;
  out.push_back(rebalance);
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

// Inverse-CDF sampler for zipf(s) over ranks [0, n).
class Zipf {
 public:
  Zipf(std::uint32_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::uint32_t Draw(zht::Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

ValuePool::ValuePool(std::uint64_t seed, std::size_t max_value) {
  const std::size_t span = std::max<std::size_t>(4u << 20, 2 * max_value);
  bytes_.resize(span + max_value);
  zht::Rng rng(seed ^ 0x7a17'0000'0000'0001ULL);
  for (std::size_t i = 0; i + 8 <= bytes_.size(); i += 8) {
    const std::uint64_t word = rng.Next();
    std::memcpy(&bytes_[i], &word, 8);
  }
  max_offset_ = static_cast<std::uint32_t>(span);
}

std::vector<ThreadInputs> GenerateInputs(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         std::size_t schedule_len,
                                         const ValuePool& pool) {
  zht::Rng salt_rng(seed);
  const auto salt = static_cast<unsigned>(salt_rng.Next() & 0xffff);
  std::optional<Zipf> zipf;
  if (spec.zipf > 0) zipf.emplace(spec.keys_per_thread, spec.zipf);

  std::vector<ThreadInputs> out(static_cast<std::size_t>(spec.threads));
  for (int t = 0; t < spec.threads; ++t) {
    ThreadInputs& in = out[static_cast<std::size_t>(t)];
    zht::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(t) + 1);
    const std::uint32_t total = spec.keys_per_thread + spec.dir_keys_per_thread;
    in.main_keys = spec.keys_per_thread;
    in.keys.reserve(total);
    char buf[32];
    for (std::uint32_t k = 0; k < total; ++k) {
      // 15-byte keys: 'k', 4 hex digits of seed salt, thread, 9-digit index.
      std::snprintf(buf, sizeof(buf), "k%04x%01d%09u", salt, t, k);
      in.keys.emplace_back(buf);
    }
    // Hot ranks land on scattered keys (and so scattered partitions).
    std::vector<std::uint32_t> rank_to_key(spec.keys_per_thread);
    for (std::uint32_t k = 0; k < spec.keys_per_thread; ++k) rank_to_key[k] = k;
    for (std::uint32_t k = spec.keys_per_thread; k > 1; --k) {
      std::swap(rank_to_key[k - 1], rank_to_key[rng.Below(k)]);
    }
    in.preload_offsets.resize(spec.keys_per_thread);
    for (auto& off : in.preload_offsets) {
      off = static_cast<std::uint32_t>(rng.Below(pool.max_offset()));
    }
    in.ops.resize(schedule_len);
    in.offsets.resize(schedule_len);
    for (std::size_t i = 0; i < schedule_len; ++i) {
      const double u = rng.NextDouble();
      std::uint32_t op = kLookup;
      double acc = spec.mix[kLookup];
      while (op < kRemove && u >= acc) acc += spec.mix[++op];
      while (op > 0 && spec.mix[op] == 0) --op;  // rounding past the mix
      std::uint32_t key;
      if (op == kAppend && spec.dir_keys_per_thread > 0) {
        key = spec.keys_per_thread +
              static_cast<std::uint32_t>(rng.Below(spec.dir_keys_per_thread));
      } else if (zipf) {
        key = rank_to_key[zipf->Draw(rng)];
      } else {
        key = static_cast<std::uint32_t>(rng.Below(spec.keys_per_thread));
      }
      in.ops[i] = op << 30 | key;
      in.offsets[i] = static_cast<std::uint32_t>(rng.Below(pool.max_offset()));
    }
  }
  return out;
}

bool KeyModel::Matches(std::string_view value, const ValuePool& pool) const {
  if (!present || value.size() != len) return false;
  std::size_t at = 0;
  for (const Slice& s : slices) {
    if (value.substr(at, s.len) != pool.Slice(s.offset, s.len)) return false;
    at += s.len;
  }
  return true;
}

}  // namespace perfbench
