// Traffic-shape survival suite (ROADMAP item 4): skewed and bursty load
// against one ZhtServer instance, driven straight through HandleAsync so
// the numbers measure server-side capacity, not transport dilution.
//
//   * zipf s in {0.9, 1.1} and a flash crowd (90% of picks on one key),
//     at 99/1 and 50/50 read/write mixes, value sizes 134 B -> 1 MB, each
//     run with the per-shard hot-key cache off and on. Reports ops/sec,
//     p50/p99/p999 per mix, the cache hit ratio, and the on/off speedup.
//   * flash-crowd overload with every shard's drain deliberately stalled:
//     with admission control ON the server sheds kUnavailable + a
//     retry-after hint at a bounded mailbox depth; with it OFF the same
//     schedule grows the mailbox without bound. Reports shed/served
//     ratios and both depth curves.
//
// Gates (all modes): cache hit ratio > 0 under zipf 1.1, zero stale
// reads (every lookup is checked against a client-side model), sheds
// carry retry_after_us > 0, and the budget bounds the mailbox depth the
// unbudgeted run exceeds. Full mode adds the acceptance bar: cache-on
// throughput >= 1.5x cache-off for the zipf(1.1) 99/1 134 B mix.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "bench/workload.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/zht_server.h"
#include "membership/membership_table.h"
#include "net/loopback.h"
#include "tests/shard_stall.h"

namespace zht::bench {
namespace {

constexpr std::size_t kPartitions = 64;
constexpr std::size_t kCacheEntries = 4096;  // sized to the hot working set
constexpr std::size_t kShedBudget = 64;

// One instance owns every partition; unbound shards drain inline, so a
// HandleAsync call completes synchronously (in-memory store: no
// durability wait, no replication legs).
struct Instance {
  LoopbackNetwork network;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<ZhtServer> server;
  std::uint64_t seq = 0;

  explicit Instance(std::size_t cache_entries, std::size_t shed_budget = 0,
                    StoreFactory store_factory = nullptr) {
    MembershipTable table = MembershipTable::CreateUniform(
        kPartitions, {NodeAddress{"10.0.0.1", 50000}});
    transport = std::make_unique<LoopbackTransport>(&network);
    ZhtServerOptions options;
    options.store_factory = std::move(store_factory);
    options.cluster.hot_cache_entries = cache_entries;
    options.cluster.shed_queue_budget = shed_budget;
    server = std::make_unique<ZhtServer>(std::move(table), options,
                                         transport.get());
  }

  Response Call(OpCode op, const std::string& key, std::string value = "") {
    Request request;
    request.op = op;
    request.seq = ++seq;
    request.key = key;
    request.value = std::move(value);
    request.epoch = server->table().epoch();
    Response out;
    bool completed = false;
    server->HandleAsync(std::move(request), [&](Response&& resp) {
      out = std::move(resp);
      completed = true;
    });
    if (!completed) {
      std::fprintf(stderr, "FATAL: HandleAsync did not complete inline\n");
      std::abort();
    }
    return out;
  }
};

struct Shape {
  std::string name;     // "zipf0.9", "zipf1.1", "flash"
  double zipf_s = 0;    // 0 = flash crowd instead
};

struct MixResult {
  double kops = 0;
  double hit_ratio = 0;
  std::uint64_t stale_reads = 0;
};

// Values carry a per-key version prefix so every lookup can be checked
// against the client-side model — a cache serving a pre-mutation value
// shows up as a stale read, not a silent pass.
std::string VersionedValue(const std::string& payload, std::uint64_t version) {
  std::string value = std::to_string(version);
  value.push_back('|');
  value += payload;
  return value;
}

MixResult RunMix(Instance& inst, const Shape& shape, double read_fraction,
                 const std::vector<std::string>& keys,
                 const std::string& payload, std::size_t ops,
                 LatencyStats& lat, std::uint64_t seed) {
  ZipfGenerator zipf(keys.size(), shape.zipf_s > 0 ? shape.zipf_s : 1.0, seed);
  FlashCrowdGenerator flash(keys.size(), 0.9, seed);
  Rng mix_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::uint64_t> version(keys.size(), 1);
  // Client-side model of the store: expect[rank] is the exact value the
  // last acked write put there. Kept materialized so the per-read stale
  // check is a comparison, not an allocation, inside the timed loop.
  std::vector<std::string> expect;
  expect.reserve(keys.size());

  // Preload every key at version 1 so reads always find something, then
  // an untimed lookup warmup (same draws for the cache-off and cache-on
  // instance) so the measured window sees a steady-state cache.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    expect.push_back(VersionedValue(payload, 1));
    inst.Call(OpCode::kInsert, keys[i], expect.back());
  }
  for (std::size_t i = 0; i < ops / 2; ++i) {
    const std::size_t rank = shape.zipf_s > 0 ? zipf.Next() : flash.Next();
    inst.Call(OpCode::kLookup, keys[rank]);
  }

  // Materialize the op schedule up front: drawing from the generators is
  // workload synthesis, not the system under test, so it stays out of the
  // timed window (and out of both the cache-off and cache-on numbers).
  struct PlannedOp {
    std::uint32_t rank;
    bool read;
  };
  std::vector<PlannedOp> plan;
  plan.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t rank = shape.zipf_s > 0 ? zipf.Next() : flash.Next();
    plan.push_back({static_cast<std::uint32_t>(rank),
                    mix_rng.NextDouble() < read_fraction});
  }

  const ZhtServerStats before = inst.server->stats();
  MixResult result;
  // Best-of-N trials of the same schedule: on a shared box, OS jitter is
  // multiplicative slowdown only, so the max over trials is the least
  // noisy throughput estimate. Latency samples and the stale check
  // accumulate across every trial (replays keep writing new versions, so
  // each trial re-exercises invalidation).
  const int trials = SmokeMode() ? 1 : 3;
  for (int trial = 0; trial < trials; ++trial) {
    Stopwatch run_watch(SystemClock::Instance());
    for (std::size_t i = 0; i < ops; ++i) {
      const std::size_t rank = plan[i].rank;
      const bool read = plan[i].read;
      const Stopwatch op_watch(SystemClock::Instance());
      if (read) {
        Response resp = inst.Call(OpCode::kLookup, keys[rank]);
        lat.Record(op_watch.Elapsed());
        if (!resp.ok() || resp.value != expect[rank]) ++result.stale_reads;
      } else {
        ++version[rank];
        expect[rank] = VersionedValue(payload, version[rank]);
        inst.Call(OpCode::kInsert, keys[rank], expect[rank]);
        lat.Record(op_watch.Elapsed());
      }
    }
    const double seconds = ToSeconds(run_watch.Elapsed());
    result.kops =
        std::max(result.kops, static_cast<double>(ops) / seconds / 1000.0);
  }

  const ZhtServerStats after = inst.server->stats();
  const std::uint64_t hits = after.hot_cache_hits - before.hot_cache_hits;
  const std::uint64_t misses = after.hot_cache_misses - before.hot_cache_misses;
  if (hits + misses > 0) {
    result.hit_ratio =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  return result;
}

// ---- Overload: stalled drains, admission control on vs off ---------------

struct OverloadResult {
  std::uint64_t shed = 0;
  std::uint64_t served = 0;
  std::uint64_t max_queued = 0;       // peak total mailbox depth
  std::uint32_t min_retry_after = 0;  // smallest hint on a shed response
  std::uint32_t max_retry_after = 0;
  bool bad_shed_envelope = false;  // a shed without kUnavailable+hint
};

OverloadResult RunOverload(std::size_t shed_budget, std::size_t ops,
                           const std::vector<std::string>& keys,
                           const std::string& payload) {
  // Cache off: inserts and lookups must all try to queue, nothing may be
  // answered from the ingress fast path.
  ShardStall stall;
  Instance inst(/*cache_entries=*/0, shed_budget, stall.Factory());
  const std::size_t num_shards = inst.server->num_shards();
  for (std::size_t s = 0; s < num_shards; ++s) {
    // Every shard's drain held inside a store Put: posts pile up in the
    // mailbox, which is exactly the overload admission control must catch
    // at ingress. Release() below lets the holders drain it.
    stall.Hold(*inst.server, s);
  }

  FlashCrowdGenerator flash(keys.size(), 0.9, /*seed=*/7);
  OverloadResult result;
  // Bumped by the holders' drains after Release(), one thread per shard.
  std::atomic<std::uint64_t> completions{0};
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t rank = flash.Next();
    Request request;
    request.op = OpCode::kInsert;
    request.seq = ++inst.seq;
    request.key = keys[rank];
    request.value = payload;
    request.epoch = inst.server->table().epoch();
    inst.server->HandleAsync(
        std::move(request), [&result, &completions](Response&& resp) {
          // While drains are stalled, an inline completion can only be a
          // shed; admitted inserts ack OK from the drain.
          const StatusCode code = static_cast<StatusCode>(resp.status);
          if (code == StatusCode::kUnavailable) {
            ++result.shed;
            if (resp.retry_after_us == 0) {
              result.bad_shed_envelope = true;
            } else {
              if (result.min_retry_after == 0 ||
                  resp.retry_after_us < result.min_retry_after) {
                result.min_retry_after = resp.retry_after_us;
              }
              result.max_retry_after =
                  std::max(result.max_retry_after, resp.retry_after_us);
            }
          }
          completions.fetch_add(1, std::memory_order_relaxed);
        });
    std::uint64_t depth = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      depth += inst.server->ShardQueuedNow(s);
    }
    result.max_queued = std::max(result.max_queued, depth);
  }

  // Let the holders drain everything that was admitted, so every callback
  // fires before the counts are read and the server shuts down cleanly.
  stall.Release();
  result.served = completions.load() - result.shed;
  return result;
}

}  // namespace
}  // namespace zht::bench

int main() {
  using namespace zht;
  using namespace zht::bench;

  const std::size_t base_ops = Smoke<std::size_t>(60000, 600);
  const std::vector<std::size_t> value_sizes =
      SmokeMode() ? std::vector<std::size_t>{134, 65536}
                  : std::vector<std::size_t>{134, 4096, 65536, 1048576};
  const std::vector<Shape> shapes = {
      {"zipf0.9", 0.9}, {"zipf1.1", 1.1}, {"flash", 0.0}};
  const std::vector<std::pair<std::string, double>> mixes = {
      {"r99", 0.99}, {"r50", 0.50}};

  Banner("Traffic shapes",
         "skewed/bursty load vs the per-shard hot-key cache (1 instance, "
         "direct HandleAsync)");
  PrintRow({"shape", "mix", "value", "off kops", "on kops", "speedup",
            "hit%", "p999 on (us)"},
           13);
  Report().SetParam("cache_entries", static_cast<double>(kCacheEntries));
  Report().SetParam("shed_budget", static_cast<double>(kShedBudget));

  bool hit_gate = false;     // some zipf1.1 mix saw cache hits
  bool stale_gate_ok = true; // no lookup ever returned a stale value
  double accept_speedup = 0; // zipf1.1 / r99 / 134 B
  bool full_gate_ok = true;

  for (const Shape& shape : shapes) {
    for (const auto& [mix_name, read_fraction] : mixes) {
      for (const std::size_t value_bytes : value_sizes) {
        // Bound the resident set: big values get a smaller key universe
        // and fewer ops (a 1 MB insert is the work being measured, not
        // the loop around it).
        const std::size_t n_keys = std::clamp<std::size_t>(
            (64u << 20) / value_bytes, 64, Smoke<std::size_t>(4096, 512));
        const std::size_t ops =
            std::max<std::size_t>(base_ops / std::max<std::size_t>(
                                                 value_bytes / 4096, 1),
                                  Smoke<std::size_t>(2000, 50));
        const auto keys = MakeKeySet(n_keys, 15, /*seed=*/41);
        const std::string payload = MakeValue(value_bytes, /*seed=*/43);
        const std::string label =
            shape.name + "_" + mix_name + "_v" + std::to_string(value_bytes);

        Instance off(0);
        LatencyStats off_lat;
        MixResult off_r = RunMix(off, shape, read_fraction, keys, payload,
                                 ops, off_lat, /*seed=*/17);
        Instance on(kCacheEntries);
        LatencyStats on_lat;
        MixResult on_r = RunMix(on, shape, read_fraction, keys, payload,
                                ops, on_lat, /*seed=*/17);

        const double speedup = off_r.kops > 0 ? on_r.kops / off_r.kops : 0;
        if (shape.name == "zipf1.1" && on_r.hit_ratio > 0) hit_gate = true;
        if (off_r.stale_reads + on_r.stale_reads > 0) stale_gate_ok = false;
        if (shape.name == "zipf1.1" && mix_name == "r99" &&
            value_bytes == 134) {
          accept_speedup = speedup;
        }

        PrintRow({shape.name, mix_name, std::to_string(value_bytes),
                  Fmt(off_r.kops, 1), Fmt(on_r.kops, 1),
                  Fmt(speedup, 2) + "x", Fmt(on_r.hit_ratio * 100, 1),
                  Fmt(static_cast<double>(on_lat.P999()) / 1000.0, 1)},
                 13);
        Report().AddMetric(label + ".off_kops", off_r.kops);
        Report().AddMetric(label + ".on_kops", on_r.kops);
        Report().AddMetric(label + ".speedup", speedup);
        Report().AddMetric(label + ".hit_ratio", on_r.hit_ratio);
        Report().AddMetric(label + ".stale_reads",
                           static_cast<double>(off_r.stale_reads +
                                               on_r.stale_reads));
        Report().AddLatency(label + ".off.latency", off_lat);
        Report().AddLatency(label + ".on.latency", on_lat);
        std::printf(
            "JSON {\"bench\":\"traffic\",\"shape\":\"%s\",\"mix\":\"%s\","
            "\"value_bytes\":%zu,\"off_kops\":%.1f,\"on_kops\":%.1f,"
            "\"speedup\":%.2f,\"hit_ratio\":%.3f,\"p999_on_ns\":%lld}\n",
            shape.name.c_str(), mix_name.c_str(), value_bytes, off_r.kops,
            on_r.kops, speedup, on_r.hit_ratio,
            static_cast<long long>(on_lat.P999()));
      }
    }
  }

  Banner("Flash-crowd overload",
         "stalled shard drains; admission control on (budget) vs off");
  PrintRow({"budget", "shed", "served", "shed_ratio", "max_queued",
            "retry_us"},
           13);
  {
    const std::size_t ops = Smoke<std::size_t>(4000, 400);
    const auto keys = MakeKeySet(256, 15, /*seed=*/41);
    const std::string payload = MakeValue(134, /*seed=*/43);

    OverloadResult on = RunOverload(kShedBudget, ops, keys, payload);
    OverloadResult off = RunOverload(0, ops, keys, payload);

    const double on_ratio =
        on.shed + on.served > 0
            ? static_cast<double>(on.shed) /
                  static_cast<double>(on.shed + on.served)
            : 0;
    PrintRow({std::to_string(kShedBudget), FmtInt(on.shed),
              FmtInt(on.served), Fmt(on_ratio, 3), FmtInt(on.max_queued),
              FmtInt(on.min_retry_after) + "-" +
                  FmtInt(on.max_retry_after)},
             13);
    PrintRow({"off", FmtInt(off.shed), FmtInt(off.served), Fmt(0.0, 3),
              FmtInt(off.max_queued), "-"},
             13);
    Report().AddMetric("overload.on.shed", static_cast<double>(on.shed));
    Report().AddMetric("overload.on.served",
                       static_cast<double>(on.served));
    Report().AddMetric("overload.on.shed_ratio", on_ratio);
    Report().AddMetric("overload.on.max_queued",
                       static_cast<double>(on.max_queued));
    Report().AddMetric("overload.on.min_retry_after_us",
                       static_cast<double>(on.min_retry_after));
    Report().AddMetric("overload.on.max_retry_after_us",
                       static_cast<double>(on.max_retry_after));
    Report().AddMetric("overload.off.max_queued",
                       static_cast<double>(off.max_queued));
    std::printf(
        "JSON {\"bench\":\"traffic\",\"section\":\"overload\","
        "\"budget\":%zu,\"shed\":%llu,\"served\":%llu,\"shed_ratio\":%.3f,"
        "\"on_max_queued\":%llu,\"off_max_queued\":%llu}\n",
        kShedBudget, static_cast<unsigned long long>(on.shed),
        static_cast<unsigned long long>(on.served), on_ratio,
        static_cast<unsigned long long>(on.max_queued),
        static_cast<unsigned long long>(off.max_queued));

    // Deterministic in every mode: the budget must actually shed with a
    // usable hint, bound the mailbox, and the unbudgeted run must show
    // the unbounded growth the budget prevents.
    if (on.shed == 0 || on.bad_shed_envelope) {
      std::printf("FAIL: admission control did not shed with retry-after\n");
      return 1;
    }
    if (off.shed != 0 || off.max_queued <= on.max_queued) {
      std::printf("FAIL: unbudgeted run did not out-grow the budgeted one\n");
      return 1;
    }
  }

  Note("cache-on speedup bar (>= 1.5x) applies to the zipf(1.1) 99/1 read "
       "mix at 134 B values; smoke mode checks shape gates only");
  if (!hit_gate) {
    std::printf("FAIL: no cache hits under zipf(1.1)\n");
    return 1;
  }
  if (!stale_gate_ok) {
    std::printf("FAIL: a lookup returned a stale value\n");
    return 1;
  }
  if (!SmokeMode() && accept_speedup < 1.5) {
    std::printf("FAIL: zipf(1.1) 99/1 cache speedup %.2fx < 1.5x\n",
                accept_speedup);
    full_gate_ok = false;
  }
  return full_gate_ok ? 0 : 1;
}
