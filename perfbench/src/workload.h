// Workload definitions, seeded inputs and the correctness model.
//
// Every input the program sees — keys, op schedules, values — is generated
// from the seed before timing starts. Each load thread owns a disjoint key
// set, so its model of the store is exact: a lookup must return exactly
// what the model holds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum Op : std::uint8_t { kLookup = 0, kInsert = 1, kAppend = 2, kRemove = 3 };
inline constexpr const char* kOpNames[] = {"lookup", "insert", "append",
                                           "remove"};

struct WorkloadSpec {
  std::string name;
  // Cluster shape.
  std::uint32_t instances = 1;
  int reactors = 1;
  bool persistent = false;     // NoVoHT logs with group commit
  int replicas = 0;
  std::size_t hot_cache_entries = 0;
  // Load.
  int threads = 2;             // closed-loop clients, one connection each
  std::uint32_t keys_per_thread = 0;
  double zipf = 0;             // 0 = uniform
  // Appends go to this many extra "directory" keys per thread, or to the
  // main keys when 0.
  std::uint32_t dir_keys_per_thread = 0;
  std::uint32_t value_bytes = 134;
  std::uint32_t append_bytes = 64;
  // An append that would grow a value past this is issued as an insert of a
  // fresh value instead, so values stay bounded.
  std::uint32_t append_reset_bytes = 4096;
  double mix[4] = {0, 0, 0, 0};  // lookup, insert, append, remove
  // Instances joined per measured phase (Manager::AdmitJoin), spread evenly
  // over it.
  int joins = 0;
  // Depart each joined instance again (Manager::Depart) once it serves.
  // Self-test only: a depart serves partitions it has not moved yet
  // (README.md), so the benchmark's workloads do not depart.
  bool depart_after_join = false;
  // Client retry budget per pool (ZhtClientOptions::max_attempts) and
  // per-call timeout (0 = the cluster default). The rebalance client waits
  // out whole-partition migrations instead of giving up after the default
  // few kMigrating retries.
  int client_max_attempts = 8;
  std::int64_t client_op_timeout_ms = 0;
};

// The benchmark's workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Seeded random bytes that every value is a slice of.
class ValuePool {
 public:
  ValuePool(std::uint64_t seed, std::size_t max_value);
  std::string_view Slice(std::uint32_t offset, std::uint32_t len) const {
    return std::string_view(bytes_).substr(offset, len);
  }
  // Largest offset a value of `max_value` bytes may start at.
  std::uint32_t max_offset() const { return max_offset_; }

 private:
  std::string bytes_;
  std::uint32_t max_offset_ = 0;
};

// One thread's inputs: its keys and a pre-generated op schedule.
struct ThreadInputs {
  std::vector<std::string> keys;  // main keys, then directory keys
  std::uint32_t main_keys = 0;
  std::vector<std::uint32_t> ops;      // Op << 30 | key index
  std::vector<std::uint32_t> offsets;  // value offset per op
  std::vector<std::uint32_t> preload_offsets;  // per main key
};

std::vector<ThreadInputs> GenerateInputs(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         std::size_t schedule_len,
                                         const ValuePool& pool);

// A value as a list of pool slices (appends add slices).
struct KeyModel {
  struct Slice {
    std::uint32_t offset;
    std::uint32_t len;
  };
  std::vector<Slice> slices;
  std::uint32_t len = 0;
  bool present = false;
  // An op on the key failed, so it may or may not have applied; the key
  // is not checked until a later write makes its state known again.
  bool uncertain = false;

  void Set(std::uint32_t offset, std::uint32_t n) {
    slices.assign(1, {offset, n});
    len = n;
    present = true;
    uncertain = false;
  }
  void Append(std::uint32_t offset, std::uint32_t n) {
    if (!present) slices.clear(), len = 0;
    slices.push_back({offset, n});
    len += n;
    present = true;
  }
  void Erase() {
    slices.clear();
    len = 0;
    present = false;
    uncertain = false;
  }
  bool Matches(std::string_view value, const ValuePool& pool) const;
};

}  // namespace perfbench
