// Figure 4: concurrent performance with 1 to 1K partitions per ZHT
// instance — latency must stay essentially flat (the paper measures
// 0.73 ms → 0.77 ms on BG/P; here the absolute numbers are loopback-scale
// but the flatness is the claim).
#include "bench/bench_util.h"
#include "common/stats.h"
#include "core/local_cluster.h"

int main() {
  using namespace zht;
  using namespace zht::bench;

  Banner("Figure 4",
         "Latency vs number of partitions per instance (1 instance)");
  PrintRow({"partitions", "avg latency (us)", "p99 (us)"});

  const int kOps = Smoke(3000, 200);
  Workload workload = MakeWorkload(static_cast<std::size_t>(kOps));
  Report().SetParam("ops_per_phase", kOps);
  double base = 0;
  double last = 0;  // mean at the largest partition count

  const std::vector<std::uint32_t> kPartitionSweep =
      SmokeMode() ? std::vector<std::uint32_t>{1u, 10u}
                  : std::vector<std::uint32_t>{1u, 10u, 100u, 1000u};
  for (std::uint32_t partitions : kPartitionSweep) {
    LocalClusterOptions options;
    options.num_instances = 1;
    options.num_partitions = partitions;
    auto cluster = LocalCluster::Start(options);
    if (!cluster.ok()) return 1;
    auto client = (*cluster)->CreateClient();

    LatencyStats stats;
    Stopwatch watch(SystemClock::Instance());
    for (int i = 0; i < kOps; ++i) {
      Stopwatch op(SystemClock::Instance());
      client->Insert(workload.keys[static_cast<std::size_t>(i)],
                     workload.values[static_cast<std::size_t>(i)]);
      stats.Record(op.Elapsed());
    }
    for (int i = 0; i < kOps; ++i) {
      Stopwatch op(SystemClock::Instance());
      client->Lookup(workload.keys[static_cast<std::size_t>(i)]);
      stats.Record(op.Elapsed());
    }
    for (int i = 0; i < kOps; ++i) {
      Stopwatch op(SystemClock::Instance());
      client->Remove(workload.keys[static_cast<std::size_t>(i)]);
      stats.Record(op.Elapsed());
    }
    if (partitions == 1) base = stats.MeanMicros();
    last = stats.MeanMicros();
    PrintRow({FmtInt(partitions), Fmt(stats.MeanMicros(), 2),
              Fmt(ToMicros(stats.Percentile(99)), 2)});
    Report().AddLatency("client.e2e.p" + std::to_string(partitions), stats);
    Report().AddSnapshot("p" + std::to_string(partitions),
                         (*cluster)->server(0)->MetricsSnapshotNow());
  }
  Note("paper: 0.73 ms @1 partition vs 0.77 ms @1K partitions — a 0.04 ms "
       "drift invisible next to the network RTT. Measured here (in-process, "
       "no network): " +
       Fmt(base, 2) + " us @1 partition vs " + Fmt(last, 2) + " us @" +
       FmtInt(kPartitionSweep.back()) + " partitions, a drift of " +
       Fmt(last - base, 2) + " us");
  return 0;
}
