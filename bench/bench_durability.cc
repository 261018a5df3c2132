// Durability ablation (DESIGN.md §10): concurrent-writer insert throughput
// of one NoVoHT store under the three durability modes. every_op pays one
// fdatasync per mutation; group_commit amortizes one fdatasync over every
// writer in the commit window, so with 16 concurrent writers it must
// recover most of the cost (the acceptance bar: ≥ 5× every_op).
//
// Both durable modes are also checked for the property the modes exist to
// provide: a copy of the log taken after the last ack must recover every
// acked insert (acked_op_survival = 1.0).
//
// A last row runs the same 16 writers over the 1,024 partition stores one
// server instance gets from MakeNoVoHTStoreFactory under group commit,
// acking the way ZhtServer does (last_commit_token, then WaitDurable): it
// reports the fsyncs issued and the threads the stores added.
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "core/zht_server.h"
#include "novoht/novoht.h"

namespace {

std::uint64_t ThreadCount() {
  std::uint64_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

}  // namespace

int main() {
  using namespace zht;
  using namespace zht::bench;
  namespace fs = std::filesystem;

  Banner("NoVoHT durability ablation (§10)",
         "16-writer insert throughput: none vs group_commit vs every_op");

  fs::path dir = fs::temp_directory_path() / "zht_durability_bench";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const int kWriters = 16;
  const int kOpsPerWriter = Smoke(2'000, 50);
  const std::string value(132, 'd');
  Report().SetParam("writers", static_cast<double>(kWriters));
  Report().SetParam("ops_per_writer", static_cast<double>(kOpsPerWriter));

  PrintRow({"mode", "ops", "secs", "ops/s", "fsyncs", "survival"}, 13);

  double ops_per_sec[3] = {0, 0, 0};
  const DurabilityMode kModes[] = {DurabilityMode::kNone,
                                   DurabilityMode::kGroupCommit,
                                   DurabilityMode::kEveryOp};
  for (int m = 0; m < 3; ++m) {
    const DurabilityMode mode = kModes[m];
    NoVoHTOptions options;
    options.path = (dir / (std::string(DurabilityModeName(mode)) + ".nvt"))
                       .string();
    options.durability = mode;  // wait_for_durable: ack ⇒ durable
    auto store = NoVoHT::Open(options);
    if (!store.ok()) {
      std::fprintf(stderr, "open: %s\n", store.status().ToString().c_str());
      return 1;
    }

    Stopwatch watch(SystemClock::Instance());
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kOpsPerWriter; ++i) {
          std::string key =
              "t" + std::to_string(w) + "_i" + std::to_string(i);
          if (!(*store)->Put(key, value).ok()) std::abort();
        }
      });
    }
    for (std::thread& t : writers) t.join();
    const double secs = ToMicros(watch.Elapsed()) / 1e6;
    const std::uint64_t total =
        static_cast<std::uint64_t>(kWriters) * kOpsPerWriter;
    ops_per_sec[m] = static_cast<double>(total) / secs;

    // Every Put above was acked, and in the durable modes ack ⇒ fsynced:
    // a crash now (simulated by copying the log) must lose nothing.
    double survival = 1.0;
    std::uint64_t fsyncs = 0;
    if (mode != DurabilityMode::kNone) {
      auto stats = (*store)->stats();
      fsyncs = mode == DurabilityMode::kGroupCommit
                   ? stats.group_commits
                   : total;
      fs::path crashed = dir / "crashed.nvt";
      fs::copy_file(options.path, crashed,
                    fs::copy_options::overwrite_existing);
      NoVoHTOptions reopen;
      reopen.path = crashed.string();
      auto recovered = NoVoHT::Open(reopen);
      std::uint64_t found = 0;
      if (recovered.ok()) {
        for (int w = 0; w < kWriters; ++w) {
          for (int i = 0; i < kOpsPerWriter; ++i) {
            if ((*recovered)
                    ->Get("t" + std::to_string(w) + "_i" + std::to_string(i))
                    .ok()) {
              ++found;
            }
          }
        }
      }
      survival = static_cast<double>(found) / static_cast<double>(total);
      fs::remove(crashed);

      StoreDurabilityMetrics metrics;
      if ((*store)->durability_metrics(&metrics)) {
        const std::string prefix =
            std::string("novoht.") + DurabilityModeName(mode);
        Report().AddHistogram(prefix + ".group_commit.fsync_micros",
                              metrics.fsync_micros);
        if (mode == DurabilityMode::kGroupCommit) {
          Report().AddHistogram(prefix + ".group_commit.batch_size",
                                metrics.group_commit_batch);
        }
      }
      Report().AddMetric(
          std::string("acked_op_survival.") + DurabilityModeName(mode),
          survival);
    }

    PrintRow({DurabilityModeName(mode), FmtInt(total), Fmt(secs, 3),
              FmtInt(static_cast<std::uint64_t>(ops_per_sec[m])),
              FmtInt(fsyncs), Fmt(survival, 3)},
             13);
    Report().AddMetric(
        std::string("insert_ops_per_sec.") + DurabilityModeName(mode),
        ops_per_sec[m]);
  }

  // 16 writers over 1,024 partition stores of one instance.
  {
    const std::uint32_t kPartitions = 1024;
    ClusterOptions cluster;
    cluster.durability = DurabilityMode::kGroupCommit;
    fs::create_directories(dir / "partitions");
    StoreFactory factory =
        MakeNoVoHTStoreFactory((dir / "partitions").string(), cluster);
    const std::uint64_t threads_before = ThreadCount();
    std::vector<std::unique_ptr<KVStore>> stores;
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      stores.push_back(factory(0, p));
      if (!stores.back()) {
        std::fprintf(stderr, "factory failed for partition %u\n", p);
        return 1;
      }
    }
    const std::uint64_t threads_added = ThreadCount() - threads_before;

    Stopwatch watch(SystemClock::Instance());
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kOpsPerWriter; ++i) {
          KVStore& store =
              *stores[(static_cast<std::uint32_t>(w) * 64 +
                       static_cast<std::uint32_t>(i)) % kPartitions];
          std::string key =
              "t" + std::to_string(w) + "_i" + std::to_string(i);
          if (!store.Put(key, value).ok() ||
              !store.WaitDurable(store.last_commit_token()).ok()) {
            std::abort();
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
    const double secs = ToMicros(watch.Elapsed()) / 1e6;
    const std::uint64_t total =
        static_cast<std::uint64_t>(kWriters) * kOpsPerWriter;
    const double rate = static_cast<double>(total) / secs;
    // Every store of the instance reports the one log they share.
    StoreDurabilityMetrics metrics;
    stores.front()->durability_metrics(&metrics);
    const std::uint64_t fsyncs = metrics.group_commits;
    PrintRow({"gc_1024p", FmtInt(total), Fmt(secs, 3),
              FmtInt(static_cast<std::uint64_t>(rate)), FmtInt(fsyncs), "-"},
             13);
    std::printf("gc_1024p: %llu threads added by %u partition stores\n",
                static_cast<unsigned long long>(threads_added), kPartitions);
    Report().AddMetric("insert_ops_per_sec.group_commit_1024p", rate);
    Report().AddMetric("fsyncs.group_commit_1024p",
                       static_cast<double>(fsyncs));
    Report().AddMetric("threads_added.group_commit_1024p",
                       static_cast<double>(threads_added));
    stores.clear();
  }

  const double speedup = ops_per_sec[1] / ops_per_sec[2];
  Report().AddMetric("group_commit_speedup_vs_every_op", speedup);
  std::printf("\ngroup_commit speedup over every_op: %.1fx\n", speedup);
  Note("group commit rides one fdatasync for the whole commit window; "
       "every_op serializes a sync per mutation. Both modes recover every "
       "acked insert from a crash-copied log (survival = 1.0).");

  fs::remove_all(dir);
  return 0;
}
