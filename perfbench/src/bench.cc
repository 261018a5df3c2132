#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fcntl.h>
#include <unistd.h>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "cluster.h"
#include "novoht/novoht.h"
#include "probes.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

// Nearest-rank percentile (sorts `v`); 0 when empty.
template <typename T>
double Percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t LogBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// One closed-loop load thread: its inputs, its exact model, its client.
struct Loader {
  const WorkloadSpec* spec = nullptr;
  const ValuePool* pool = nullptr;
  ThreadInputs* in = nullptr;
  std::uint64_t client_id = 0;
  BenchClient client;
  std::vector<KeyModel> model;
  std::size_t cursor = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t resent_removes = 0;  // resent, answered kNotFound, model held it
  std::uint64_t measured_ops = 0;
  std::int64_t measured_ns = 0;   // summed op latency (tracing overhead)
  std::uint64_t written_bytes = 0;  // acked key+value bytes of mutations
  std::vector<std::uint32_t> latency[4];
  std::vector<std::uint8_t> window[4];  // measurement window of each sample
  std::int64_t phase_start = 0;
  std::int64_t window_ns = 1;
  int windows = 1;
  std::vector<std::int64_t> ok_times;  // rebalance: successful completions

  void Fail(const char* what, const std::string& key, const zht::Status& st) {
    if (failed++ < 5) {
      std::fprintf(stderr, "failed op: %s %s (%s)\n", what, key.c_str(),
                   st.ok() ? "value differs from the model"
                           : st.ToString().c_str());
    }
  }

  // Checks one lookup outcome against the model.
  bool CheckLookup(const KeyModel& m, const zht::Result<std::string>& r) const {
    if (m.uncertain) return true;
    if (r.ok()) return m.Matches(*r, *pool);
    return r.status().code() == zht::StatusCode::kNotFound && !m.present;
  }

  void Preload() {
    const std::uint32_t n = in->main_keys;
    model.assign(in->keys.size(), KeyModel{});
    constexpr std::uint32_t kBatch = 256;
    std::vector<zht::KeyValue> batch;
    for (std::uint32_t k = 0; k < n; k += kBatch) {
      batch.clear();
      const std::uint32_t end = std::min(n, k + kBatch);
      for (std::uint32_t j = k; j < end; ++j) {
        batch.push_back({in->keys[j], std::string(pool->Slice(
                                          in->preload_offsets[j],
                                          spec->value_bytes))});
      }
      auto statuses = client.client->MultiInsert(batch);
      for (std::uint32_t j = k; j < end; ++j) {
        ++attempted;
        if (statuses[j - k].ok()) {
          model[j].Set(in->preload_offsets[j], spec->value_bytes);
        } else {
          model[j].uncertain = true;
          Fail("preload", in->keys[j], statuses[j - k]);
        }
      }
    }
  }

  // Runs the schedule until `deadline`; latencies are kept when `record`.
  void Run(std::int64_t deadline, bool record, bool track_ok) {
    const std::size_t n = in->ops.size();
    while (NowNs() < deadline) {
      const std::uint32_t packed = in->ops[cursor % n];
      const std::uint32_t offset = in->offsets[cursor % n];
      ++cursor;
      auto op = static_cast<Op>(packed >> 30);
      const std::uint32_t k = packed & 0x3fffffffu;
      KeyModel& m = model[k];
      const std::string& key = in->keys[k];
      if (op == kAppend && m.present &&
          m.len + spec->append_bytes > spec->append_reset_bytes) {
        op = kInsert;
      }
      const std::uint32_t vlen =
          op == kAppend ? spec->append_bytes : spec->value_bytes;
      const std::string_view value = pool->Slice(offset, vlen);
      bool ok = true;
      zht::Status code;
      const std::int64_t t0 = NowNs();
      switch (op) {
        case kLookup: {
          auto r = client.client->Lookup(key);
          ok = CheckLookup(m, r);
          code = r.status();
          break;
        }
        case kInsert: {
          zht::Status st = client.client->Insert(key, value);
          code = st;
          if (st.ok()) {
            m.Set(offset, vlen);
          } else {
            ok = false;
            m.uncertain = true;
          }
          break;
        }
        case kAppend: {
          zht::Status st = client.client->Append(key, value);
          code = st;
          if (!st.ok()) {
            ok = false;
            m.uncertain = true;
          } else if (!m.uncertain) {
            m.Append(offset, vlen);
          }
          break;
        }
        case kRemove: {
          // Removes are not deduplicated on (client_id, seq): when the
          // client resent one, an earlier attempt may have applied it and
          // the resend then honestly answers kNotFound.
          const std::uint64_t retries_before = client.client->stats().retries;
          zht::Status st = client.client->Remove(key);
          const bool resent = client.client->stats().retries != retries_before;
          code = st;
          const bool found = st.ok();
          if (!found && st.code() != zht::StatusCode::kNotFound) {
            ok = false;
            m.uncertain = true;
          } else {
            if (!m.uncertain && found != m.present && !(resent && !found)) {
              ok = false;
            }
            if (resent && !found && m.present) ++resent_removes;
            m.Erase();
          }
          break;
        }
      }
      const std::int64_t t1 = NowNs();
      ++attempted;
      if (!ok) Fail(kOpNames[op], key, code);
      if (record) {
        ++measured_ops;
        measured_ns += t1 - t0;
        latency[op].push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(t1 - t0, UINT32_MAX)));
        window[op].push_back(static_cast<std::uint8_t>(std::min<std::int64_t>(
            windows - 1, (t1 - phase_start) / window_ns)));
        if (TracingOn()) {
          Span span;
          span.kind = SpanKind::kOp;
          span.detail = op;
          span.client_id = client_id;
          span.seq = cursor;
          span.start = t0;
          span.end = t1;
          RecordSpan(span);
        }
        if (track_ok && ok) ok_times.push_back(t1);
        if (ok && op != kLookup) {
          written_bytes += key.size() + (op == kRemove ? 0 : vlen);
        }
      }
    }
  }

  // Reads every key back and compares it with the model.
  void Audit() {
    for (std::size_t k = 0; k < in->keys.size(); ++k) {
      ++attempted;
      auto r = client.client->Lookup(in->keys[k]);
      if (!CheckLookup(model[k], r)) Fail("audit", in->keys[k], r.status());
    }
  }
};

// Counters read through the program's public accessors.
struct Counters {
  std::uint64_t server_ops = 0, redirects = 0, sheds = 0, cache_hits = 0,
                cache_misses = 0, forwarded = 0, wakeups = 0,
                migration_bytes = 0, group_commits = 0;
  std::uint64_t client_redirects = 0, client_pulls = 0;
  std::uint64_t partitions_moved = 0, repairs = 0;
  AllocTotals alloc;
};

Counters ReadCounters(BenchCluster& cluster,
                      const std::vector<std::unique_ptr<Loader>>& loaders,
                      bool census) {
  Counters c;
  for (const auto& server : cluster.servers()) {
    const zht::ZhtServerStats s = server->stats();
    c.server_ops += s.ops;
    c.redirects += s.redirects;
    c.sheds += s.sheds;
    c.cache_hits += s.hot_cache_hits;
    c.cache_misses += s.hot_cache_misses;
    c.migration_bytes += s.migration_bytes_streamed;
    for (std::size_t shard = 0; shard < server->num_shards(); ++shard) {
      c.forwarded += server->ShardForwardedOps(shard);
    }
    if (census) {
      c.group_commits += static_cast<std::uint64_t>(
          server->MetricsSnapshotNow().ValueOf("novoht.group_commits"));
    }
  }
  for (zht::EpollServer* fe : cluster.instance_front_ends()) {
    c.wakeups += fe->loop_wakeups();
  }
  for (const auto& loader : loaders) {
    c.client_redirects += loader->client.client->stats().redirects_followed;
    c.client_pulls += loader->client.client->stats().membership_pulls;
  }
  const zht::ManagerStats m = cluster.manager().stats();
  c.partitions_moved = m.partitions_migrated;
  c.repairs = m.repairs_commanded;
  c.alloc = AllocTotalsNow();
  return c;
}

// Joins (and, in the self-test, departs) while the background client runs.
struct Rebalancer {
  BenchCluster* cluster = nullptr;
  bool depart = false;
  int max_attempts = 8;
  zht::Nanos op_timeout = 0;
  std::vector<std::string> probe_keys;
  std::vector<double> durations_s;
  std::uint64_t failures = 0;

  // Waits until every probe key is served again after a membership change;
  // the prober's retry budget does the waiting. False if a key never was.
  bool ProbeUntilServed(BenchClient& prober) {
    for (const std::string& key : probe_keys) {
      auto r = prober.client->Lookup(key);
      if (!r.ok() && r.status().code() != zht::StatusCode::kNotFound) {
        ++failures;
        std::fprintf(stderr, "probe %s not served: %s\n", key.c_str(),
                     r.status().ToString().c_str());
        return false;
      }
    }
    return true;
  }

  // `joins` joins, started at even intervals over the phase so the
  // background client also runs between membership changes.
  void Run(std::int64_t start, std::int64_t deadline, int joins,
           std::atomic<bool>& stop) {
    BenchClient prober = cluster->MakeClient(0xC0FFEE, max_attempts, op_timeout);
    const std::int64_t every = (deadline - start) / joins;
    for (int c = 0; c < joins && !stop.load(); ++c) {
      while (!stop.load() && NowNs() < start + c * every) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      std::int64_t t0 = NowNs();
      auto joined = cluster->Join();
      if (!joined.ok()) {
        ++failures;
        std::fprintf(stderr, "join failed: %s\n",
                     joined.status().ToString().c_str());
        return;
      }
      if (!ProbeUntilServed(prober)) return;
      durations_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (!depart) continue;
      t0 = NowNs();
      zht::Status departed = cluster->Depart(*joined);
      if (!departed.ok()) {
        ++failures;
        std::fprintf(stderr, "depart failed: %s\n",
                     departed.ToString().c_str());
        return;
      }
      if (!ProbeUntilServed(prober)) return;
      durations_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  }
};

template <typename Fn>
void OnEachLoader(const std::vector<std::unique_ptr<Loader>>& loaders, Fn fn) {
  std::vector<std::thread> threads;
  for (const auto& loader : loaders) {
    threads.emplace_back([&fn, l = loader.get()] { fn(*l); });
  }
  for (auto& t : threads) t.join();
}

// Times Request/Response Encode and Decode on the workload's own messages.
void MeasureCodec(const Loader& loader, RunResult& out) {
  const WorkloadSpec& spec = *loader.spec;
  const std::size_t n = std::min<std::size_t>(loader.in->ops.size(), 20'000);
  std::vector<zht::Request> requests(n);
  std::vector<zht::Response> responses(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto op = static_cast<Op>(loader.in->ops[i] >> 30);
    const std::uint32_t k = loader.in->ops[i] & 0x3fffffffu;
    const std::uint32_t len =
        op == kAppend ? spec.append_bytes : spec.value_bytes;
    zht::Request& r = requests[i];
    r.op = static_cast<zht::OpCode>(op + 1);
    r.seq = i + 1;
    r.client_id = loader.client_id;
    r.key = loader.in->keys[k];
    if (op == kInsert || op == kAppend) {
      r.value = std::string(loader.pool->Slice(loader.in->offsets[i], len));
    }
    responses[i].seq = i + 1;
    if (op == kLookup) {
      responses[i].value =
          std::string(loader.pool->Slice(loader.in->offsets[i], len));
    }
  }
  std::vector<std::string> enc_req(n), enc_resp(n);
  std::vector<double> enc_ns, dec_ns;
  std::size_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < n; ++i) {
      enc_req[i] = requests[i].Encode();
      enc_resp[i] = responses[i].Encode();
    }
    std::int64_t t1 = NowNs();
    for (std::size_t i = 0; i < n; ++i) {
      auto req = zht::Request::Decode(enc_req[i]);
      auto resp = zht::Response::Decode(enc_resp[i]);
      sink += req.ok() + resp.ok();
    }
    std::int64_t t2 = NowNs();
    enc_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
    dec_ns.push_back(static_cast<double>(t2 - t1) / static_cast<double>(n));
  }
  if (sink != 10 * n) out.notes.push_back("codec: a message failed to decode");
  out.metrics["serialize.encode_ns"] = {Median(enc_ns), "ns"};
  out.metrics["serialize.decode_ns"] = {Median(dec_ns), "ns"};
}

// Per-layer figures from the traced phase's spans.
void JoinSpans(const std::vector<Span>& spans, RunResult& out,
               double untraced_mean_us) {
  auto key_of = [](std::uint64_t a, std::uint64_t b) {
    return a * 0x9e3779b97f4a7c15ULL ^ b;
  };
  std::unordered_map<std::uint64_t, std::vector<const Span*>> server_by_req;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children_by_key;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> transport_by_client;
  std::vector<const Span*> op_spans, server_spans;
  std::vector<std::int64_t> put, get, append, durable, leg;
  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kOp:
        op_spans.push_back(&s);
        break;
      case SpanKind::kTransport:
        transport_by_client[s.client_id].push_back(&s);
        break;
      case SpanKind::kServer:
        if ((s.detail & 0x80) == 0) {
          server_spans.push_back(&s);
          server_by_req[key_of(s.client_id, s.seq)].push_back(&s);
        }
        break;
      case SpanKind::kStore:
        children_by_key[key_of(s.instance, s.key_hash)].push_back(&s);
        if (s.detail == kStorePut) put.push_back(s.end - s.start);
        if (s.detail == kStoreGet) get.push_back(s.end - s.start);
        if (s.detail == kStoreAppend) append.push_back(s.end - s.start);
        break;
      case SpanKind::kDurable:
        children_by_key[key_of(s.instance, s.key_hash)].push_back(&s);
        durable.push_back(s.end - s.start);
        break;
      case SpanKind::kPeer:
        children_by_key[key_of(s.instance, s.key_hash)].push_back(&s);
        leg.push_back(s.end - s.start);
        break;
    }
  }
  for (auto& [id, v] : transport_by_client) {
    std::sort(v.begin(), v.end(),
              [](const Span* a, const Span* b) { return a->start < b->start; });
  }

  // Client: op span minus the transport calls inside it.
  std::vector<std::int64_t> client_self, wire;
  double op_mean_ns = 0;
  std::uint64_t attempts = 0;
  std::uint64_t violations = 0;
  for (const Span* op : op_spans) {
    op_mean_ns += static_cast<double>(op->end - op->start);
    auto& ts = transport_by_client[op->client_id];
    auto it = std::lower_bound(
        ts.begin(), ts.end(), op->start,
        [](const Span* s, std::int64_t t) { return s->start < t; });
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (; it != ts.end() && (*it)->start < op->end; ++it) {
      children.emplace_back((*it)->start, (*it)->end);
      ++attempts;
      // Wire: transport call minus the server span it caused.
      for (const Span* srv : server_by_req[key_of((*it)->client_id, (*it)->seq)]) {
        if (srv->start >= (*it)->start && srv->end <= (*it)->end) {
          wire.push_back(((*it)->end - (*it)->start) - (srv->end - srv->start));
          break;
        }
      }
    }
    const std::int64_t covered = CoveredNs(op->start, op->end, children);
    const std::int64_t self = SelfNs(op->start, op->end, children);
    if (self < 0 || self + covered != op->end - op->start) ++violations;
    client_self.push_back(self);
  }
  if (!op_spans.empty()) op_mean_ns /= static_cast<double>(op_spans.size());

  // Server: handler span minus store, durability and peer spans inside it.
  std::vector<std::int64_t> server_self;
  std::uint64_t mutations = 0;
  for (const Span* srv : server_spans) {
    const auto op = static_cast<zht::OpCode>(srv->detail & 0x7f);
    if (op == zht::OpCode::kInsert || op == zht::OpCode::kAppend ||
        op == zht::OpCode::kRemove) {
      ++mutations;
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (const Span* c : children_by_key[key_of(srv->instance, srv->key_hash)]) {
      if (c->start >= srv->start && c->end <= srv->end) {
        children.emplace_back(c->start, c->end);
      }
    }
    const std::int64_t covered = CoveredNs(srv->start, srv->end, children);
    const std::int64_t self = SelfNs(srv->start, srv->end, children);
    if (self < 0 || self + covered != srv->end - srv->start) ++violations;
    server_self.push_back(self);
  }
  out.spans_sum = violations == 0;

  auto us = [](double ns) { return ns / 1000.0; };
  out.metrics["client.self_us.p50"] = {us(Percentile(client_self, 50)), "us"};
  out.metrics["client.attempts_per_op"] = {
      op_spans.empty() ? 0.0
                       : static_cast<double>(attempts) /
                             static_cast<double>(op_spans.size()),
      "count"};
  out.metrics["net.wire_us.p50"] = {us(Percentile(wire, 50)), "us"};
  out.metrics["net.wire_us.p99"] = {us(Percentile(wire, 99)), "us"};
  out.metrics["server.self_us.p50"] = {us(Percentile(server_self, 50)), "us"};
  out.metrics["server.self_us.p99"] = {us(Percentile(server_self, 99)), "us"};
  out.metrics["novoht.put_us.p50"] = {us(Percentile(put, 50)), "us"};
  out.metrics["novoht.put_us.p99"] = {us(Percentile(put, 99)), "us"};
  out.metrics["novoht.get_us.p50"] = {us(Percentile(get, 50)), "us"};
  out.metrics["novoht.get_us.p99"] = {us(Percentile(get, 99)), "us"};
  out.metrics["novoht.append_us.p50"] = {us(Percentile(append, 50)), "us"};
  out.metrics["novoht.append_us.p99"] = {us(Percentile(append, 99)), "us"};
  out.metrics["novoht.durable_wait_us.p50"] = {us(Percentile(durable, 50)), "us"};
  out.metrics["novoht.durable_wait_us.p99"] = {us(Percentile(durable, 99)), "us"};
  out.metrics["replication.leg_us.p50"] = {us(Percentile(leg, 50)), "us"};
  out.metrics["replication.leg_us.p99"] = {us(Percentile(leg, 99)), "us"};
  out.metrics["replication.legs_per_write"] = {
      mutations == 0 ? 0.0
                     : static_cast<double>(leg.size()) /
                           static_cast<double>(mutations),
      "count"};
  out.metrics["trace.overhead_us"] = {us(op_mean_ns) - untraced_mean_us, "us"};
  out.metrics["trace.spans"] = {static_cast<double>(spans.size()), "count"};
  out.notes.push_back("traced ops " + std::to_string(op_spans.size()) +
                      ", server spans " + std::to_string(server_spans.size()) +
                      ", wire samples " + std::to_string(wire.size()) +
                      ", span-sum violations " + std::to_string(violations));
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "kind,detail,instance,client_id,seq,key_hash,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%u,%u,%u,%llu,%llu,%llu,%lld,%lld\n",
                 static_cast<unsigned>(s.kind), static_cast<unsigned>(s.detail),
                 static_cast<unsigned>(s.instance),
                 static_cast<unsigned long long>(s.client_id),
                 static_cast<unsigned long long>(s.seq),
                 static_cast<unsigned long long>(s.key_hash),
                 static_cast<long long>(s.start), static_cast<long long>(s.end));
  }
  std::fclose(f);
}

}  // namespace

zht::Result<RunResult> RunWorkload(const WorkloadSpec& base,
                                   const RunOptions& options) {
  const WorkloadSpec spec = base;
  RunResult out;

  // --- inputs, generated before anything is timed ---
  const std::size_t max_value =
      std::max(spec.value_bytes, spec.append_bytes) + 64;
  ValuePool pool(options.seed, max_value);
  // Enough schedule for ~40K ops/s per thread; it wraps around if not.
  const auto schedule_len = static_cast<std::size_t>(
      std::min(40'000 * (options.seconds + 2), 4'000'000.0));
  std::vector<ThreadInputs> inputs =
      GenerateInputs(spec, options.seed, std::max<std::size_t>(schedule_len, 1024), pool);

  ClusterSpec cs;
  cs.instances = spec.instances;
  cs.reactors = spec.reactors;
  cs.cluster.num_replicas = spec.replicas;
  cs.cluster.hot_cache_entries = spec.hot_cache_entries;
  if (spec.persistent) {
    cs.cluster.durability = zht::DurabilityMode::kGroupCommit;
    cs.cluster.max_commit_latency = 0;
  }
  cs.trace = options.trace;
  cs.faults = options.faults;
  const std::string data_dir =
      options.data_root + "/" + spec.name + "-" + std::to_string(::getpid());
  if (spec.persistent) cs.data_dir = data_dir;

  // --- set-up: boot, connect, preload ---
  std::unique_ptr<BenchCluster> cluster;
  std::vector<std::unique_ptr<Loader>> loaders;
  std::vector<double> setup_s, boot_s;  // boot_s: set-up before the preload
  auto set_up = [&]() -> zht::Status {
    std::error_code ec;
    fs::remove_all(data_dir, ec);
    if (spec.persistent) {
      fs::create_directories(data_dir, ec);
      // Settle the file system's journal, so deleting the previous set-up's
      // logs is not timed as part of this one.
      const int fd = ::open(data_dir.c_str(), O_RDONLY | O_DIRECTORY);
      if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
      }
    }
    const std::int64_t t0 = NowNs();
    auto started = BenchCluster::Start(cs);
    if (!started.ok()) return started.status();
    cluster = std::move(*started);
    for (int t = 0; t < spec.threads; ++t) {
      auto loader = std::make_unique<Loader>();
      loader->spec = &spec;
      loader->pool = &pool;
      loader->in = &inputs[static_cast<std::size_t>(t)];
      loader->client_id = (options.seed << 8) + static_cast<unsigned>(t) + 1;
      loader->client = cluster->MakeClient(
          loader->client_id, spec.client_max_attempts,
          spec.client_op_timeout_ms * zht::kNanosPerMilli);
      loaders.push_back(std::move(loader));
    }
    boot_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    OnEachLoader(loaders, [](Loader& l) { l.Preload(); });
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return zht::Status::Ok();
  };
  zht::Status ready = set_up();
  if (!ready.ok()) return ready;
  out.notes.push_back("store directory file system: " +
                      FilesystemType(options.data_root));

  // --- load ---
  const auto phase_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  // Throughput and latency percentiles are taken per 1 s window and
  // reported from the run's fastest quarter of windows (README.md): on a
  // shared host the hypervisor takes CPU away for seconds at a time.
  const int windows = static_cast<int>(std::clamp(options.seconds, 1.0, 60.0));
  std::vector<std::string> probe_keys;
  for (std::size_t i = 0; i < inputs[0].main_keys; i += inputs[0].main_keys / 64 + 1) {
    probe_keys.push_back(inputs[0].keys[i]);
  }
  Rebalancer rebalancer;
  rebalancer.cluster = cluster.get();
  rebalancer.depart = spec.depart_after_join;
  rebalancer.probe_keys = probe_keys;
  rebalancer.max_attempts = spec.client_max_attempts;
  rebalancer.op_timeout = spec.client_op_timeout_ms * zht::kNanosPerMilli;

  // Runs the workload for `ns`, recording latencies (and rebalancing).
  auto run_phase = [&](std::int64_t ns) {
    const std::int64_t start = NowNs();
    const std::int64_t deadline = start + ns;
    for (auto& l : loaders) {
      l->phase_start = start;
      l->windows = windows;
      l->window_ns = std::max<std::int64_t>(1, ns / windows);
    }
    std::atomic<bool> stop{false};
    std::thread driver;
    if (spec.joins > 0) {
      // A traced run has two halves; together they do the same joins.
      const int joins = options.trace ? std::max(1, spec.joins / 2) : spec.joins;
      driver = std::thread(
          [&, joins] { rebalancer.Run(start, deadline, joins, stop); });
    }
    OnEachLoader(loaders, [&](Loader& l) { l.Run(deadline, true, spec.joins > 0); });
    stop = true;
    if (driver.joinable()) driver.join();
  };

  // Warm-up: connections, caches and lazily created stores settle.
  {
    const std::int64_t deadline = NowNs() + 300'000'000;
    OnEachLoader(loaders, [&](Loader& l) { l.Run(deadline, false, false); });
  }

  std::int64_t measure_start = 0, measure_end = 0;
  double untraced_mean_us = 0;
  Counters before, after;
  std::uint64_t log_before = 0, log_after = 0;
  if (!options.trace) {
    const double stolen = StolenCpuSeconds();
    measure_start = NowNs();
    run_phase(phase_ns);
    measure_end = NowNs();
    out.notes.push_back("cpu-s stolen by the hypervisor during the phase " +
                        std::to_string(StolenCpuSeconds() - stolen));
  } else {
    // Untraced half for the overhead baseline, then the traced half.
    run_phase(phase_ns / 2);
    std::uint64_t n = 0;
    std::int64_t sum = 0;
    for (auto& l : loaders) {
      n += l->measured_ops;
      sum += l->measured_ns;
      l->measured_ops = 0;
      l->measured_ns = 0;
      l->written_bytes = 0;
      for (auto& v : l->latency) v.clear();
      for (auto& v : l->window) v.clear();
      l->ok_times.clear();
    }
    untraced_mean_us = n ? static_cast<double>(sum) / static_cast<double>(n) / 1000 : 0;
    rebalancer.durations_s.clear();
    if (spec.persistent) log_before = LogBytes(data_dir);
    before = ReadCounters(*cluster, loaders, spec.persistent);
    ClearSpans();
    SetAllocCounting(true);
    SetTracing(true);
    measure_start = NowNs();
    run_phase(phase_ns - phase_ns / 2);
    measure_end = NowNs();
    SetTracing(false);
    SetAllocCounting(false);
    after = ReadCounters(*cluster, loaders, spec.persistent);
    if (spec.persistent) log_after = LogBytes(data_dir);
    out.metrics["novoht.threads"] = {
        static_cast<double>(ProcStatusField("Threads")), "count"};
    out.metrics["novoht.open_stores"] = {static_cast<double>(OpenStores()),
                                         "count"};
  }
  const double elapsed_s =
      static_cast<double>(measure_end - measure_start) / 1e9;

  std::uint64_t ops = 0;
  std::uint64_t counts[4] = {0, 0, 0, 0};
  for (auto& l : loaders) {
    ops += l->measured_ops;
    for (int op = 0; op < 4; ++op) counts[op] += l->latency[op].size();
  }

  // Background stall: longest gap without a successful op.
  double stall_ms = 0;
  if (spec.joins > 0) {
    for (auto& l : loaders) {
      std::int64_t prev = measure_start;
      for (std::int64_t t : l->ok_times) {
        stall_ms = std::max(stall_ms, static_cast<double>(t - prev) / 1e6);
        prev = t;
      }
      stall_ms = std::max(stall_ms, static_cast<double>(measure_end - prev) / 1e6);
    }
  }

  // --- audits ---
  cluster->FlushAsyncReplication();
  OnEachLoader(loaders, [](Loader& l) { l.Audit(); });
  const zht::MembershipTable table = cluster->Table();

  // Per-layer figures that need the live cluster.
  std::vector<Span> spans;
  if (options.trace) {
    spans = CollectSpans();
    const double dops = ops == 0 ? 1.0 : static_cast<double>(ops);
    auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b >= a ? b - a : 0);
    };
    out.metrics["client.redirects_per_op"] = {
        delta(before.client_redirects, after.client_redirects) / dops, "count"};
    out.metrics["client.membership_pulls"] = {
        delta(before.client_pulls, after.client_pulls), "count"};
    std::uint64_t connects = 0;
    for (auto& l : loaders) connects += l->client.tcp->connects();
    out.metrics["net.connects"] = {static_cast<double>(connects), "count"};
    out.metrics["net.wakeups_per_op"] = {delta(before.wakeups, after.wakeups) / dops,
                                         "count"};
    const double server_ops = delta(before.server_ops, after.server_ops);
    out.metrics["server.forwarded_ratio"] = {
        server_ops == 0 ? 0.0 : delta(before.forwarded, after.forwarded) / server_ops,
        "ratio"};
    zht::HistogramData depth;
    zht::HistogramData fsync_us;
    for (const auto& server : cluster->servers()) {
      for (std::size_t s = 0; s < server->num_shards(); ++s) {
        depth.Merge(server->ShardMailboxDepth(s));
      }
      if (spec.persistent) {
        const zht::MetricsSnapshot snap = server->MetricsSnapshotNow();
        if (const auto* v = snap.Find("novoht.group_commit.fsync_micros")) {
          fsync_us.Merge(v->histogram);
        }
      }
    }
    out.metrics["server.mailbox_depth_p99"] = {depth.Percentile(99), "count"};
    const double lookups_probed = delta(before.cache_hits, after.cache_hits) +
                                  delta(before.cache_misses, after.cache_misses);
    out.metrics["server.cache_hit_ratio"] = {
        lookups_probed == 0 ? 0.0
                            : delta(before.cache_hits, after.cache_hits) / lookups_probed,
        "ratio"};
    out.metrics["server.redirects"] = {delta(before.redirects, after.redirects), "count"};
    out.metrics["server.sheds"] = {delta(before.sheds, after.sheds), "count"};
    out.metrics["novoht.fsync_us.p99"] = {fsync_us.Percentile(99), "us"};
    std::uint64_t store_mutations = 0;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kStore && s.detail != kStoreGet) ++store_mutations;
    }
    const double commits = delta(before.group_commits, after.group_commits);
    out.metrics["novoht.ops_per_fsync"] = {
        commits == 0 ? 0.0 : static_cast<double>(store_mutations) / commits, "count"};
    const double moved_bytes = delta(before.migration_bytes, after.migration_bytes);
    double rebalance_total_s = 0;
    for (double d : rebalancer.durations_s) rebalance_total_s += d;
    out.metrics["manager.partitions_moved"] = {
        delta(before.partitions_moved, after.partitions_moved), "count"};
    out.metrics["manager.bytes_moved"] = {moved_bytes, "bytes"};
    out.metrics["manager.transfer_mb_per_s"] = {
        rebalance_total_s == 0 ? 0.0 : moved_bytes / 1e6 / rebalance_total_s,
        "MB/s"};
    out.metrics["manager.repairs_commanded"] = {delta(before.repairs, after.repairs),
                                                "count"};
    out.metrics["alloc.per_op"] = {
        delta(before.alloc.allocations, after.alloc.allocations) / dops, "count"};
    out.metrics["alloc.bytes_per_op"] = {
        delta(before.alloc.bytes, after.alloc.bytes) / dops, "bytes"};
  }

  const int copies = 1 + spec.replicas;
  std::uint64_t live_bytes = 0;
  for (auto& l : loaders) {
    for (std::size_t k = 0; k < l->in->keys.size(); ++k) {
      if (l->model[k].present) live_bytes += l->in->keys[k].size() + l->model[k].len;
    }
  }
  live_bytes *= static_cast<std::uint64_t>(copies);

  std::uint64_t attempted = 0, failed = 0, resent_removes = 0;
  for (auto& l : loaders) {
    attempted += l->attempted;
    failed += l->failed;
    resent_removes += l->resent_removes;
  }
  failed += rebalancer.failures;
  out.resent_removes = resent_removes;
  out.notes.push_back("resent removes answered kNotFound (not failed) " +
                      std::to_string(resent_removes));

  // --- durable audit: stop the cluster, reopen each primary log ---
  cluster.reset();
  double space_amp = 0;
  if (spec.persistent) {
    const std::uint64_t log_bytes = LogBytes(data_dir);
    space_amp = live_bytes == 0 ? 0 : static_cast<double>(log_bytes) /
                                          static_cast<double>(live_bytes);
  }
  if (spec.persistent && spec.joins == 0) {
    std::map<std::string, std::vector<std::pair<const Loader*, std::size_t>>> by_log;
    for (auto& l : loaders) {
      for (std::size_t k = 0; k < l->in->keys.size(); ++k) {
        if (l->model[k].uncertain) continue;
        const zht::PartitionId p = table.PartitionOfKey(l->in->keys[k]);
        by_log[data_dir + "/i" + std::to_string(table.OwnerOf(p)) + "_p" +
               std::to_string(p) + ".novoht"]
            .emplace_back(l.get(), k);
      }
    }
    for (const auto& [path, keys] : by_log) {
      zht::NoVoHTOptions no;
      no.path = path;
      auto store = zht::NoVoHT::Open(no);
      for (const auto& [l, k] : keys) {
        ++attempted;
        const KeyModel& m = l->model[k];
        bool ok;
        if (!store.ok()) {
          ok = false;
        } else {
          auto r = (*store)->Get(l->in->keys[k]);
          ok = r.ok() ? m.Matches(*r, pool)
                      : (r.status().code() == zht::StatusCode::kNotFound && !m.present);
        }
        if (!ok) {
          if (failed < 5) std::fprintf(stderr, "log audit mismatch: %s\n", path.c_str());
          ++failed;
        }
      }
    }
  }
  std::error_code ec;
  fs::remove_all(data_dir, ec);
  // Peak memory of the measured deployment, before the extra set-ups.
  const double peak_rss_mb =
      static_cast<double>(ProcStatusField("VmHWM")) / 1024.0;

  // setup_s is the median of several set-ups. The extra ones come after
  // the measured cluster is gone, so they do not share the host with it.
  const int setups = options.setups > 0 ? options.setups
                     : options.trace    ? 1
                                        : 5;
  std::vector<std::unique_ptr<Loader>> measured = std::move(loaders);
  for (int round = 1; round < setups; ++round) {
    loaders.clear();
    zht::Status again = set_up();
    if (!again.ok()) return again;
    for (auto& l : loaders) {
      attempted += l->attempted;
      failed += l->failed;
    }
    loaders.clear();
    cluster.reset();
    fs::remove_all(data_dir, ec);
  }
  loaders = std::move(measured);

  out.attempted = attempted;
  out.failed = failed;

  // --- end-to-end metrics ---
  auto us = [](double ns) { return ns / 1000.0; };
  if (!options.trace) {
    std::vector<double> rate(windows);
    for (int w = 0; w < windows; ++w) {
      std::uint64_t n = 0;
      for (auto& l : loaders) {
        for (const auto& win : l->window) n += std::count(win.begin(), win.end(), w);
      }
      rate[w] = static_cast<double>(n) * windows / elapsed_s;
    }
    std::string rates_note = "ops_per_s by window";
    for (double r : rate) rates_note += ' ' + std::to_string(static_cast<long>(r));
    out.notes.push_back(rates_note);
    // The fastest quarter: the upper quartile of window rates, the lower
    // quartile of window latencies.
    out.metrics["ops_per_s"] = {Percentile(rate, 75), "1/s"};
    // p90 is the bounded tail, because p99 of fsync-bound ops swings by a
    // quarter or more between runs on a shared host (README.md); p99 over
    // the whole phase is still reported.
    for (int op = 0; op < 3; ++op) {
      const std::string name = kOpNames[op];
      std::vector<double> p50, p90;
      std::vector<std::uint32_t> all;
      for (int w = 0; w < windows; ++w) {
        std::vector<std::uint32_t> in_window;
        for (auto& l : loaders) {
          for (std::size_t i = 0; i < l->latency[op].size(); ++i) {
            if (l->window[op][i] == w) in_window.push_back(l->latency[op][i]);
          }
        }
        if (in_window.empty()) continue;
        p50.push_back(us(Percentile(in_window, 50)));
        p90.push_back(us(Percentile(in_window, 90)));
        all.insert(all.end(), in_window.begin(), in_window.end());
      }
      out.metrics[name + "_p50_us"] = {Percentile(p50, 25), "us"};
      out.metrics[name + "_p90_us"] = {Percentile(p90, 25), "us"};
      out.metrics[name + "_p99_us"] = {us(Percentile(all, 99)), "us"};
      out.notes.push_back(name + " samples " + std::to_string(all.size()) +
                          " over " + std::to_string(windows) + " windows");
    }
    out.notes.push_back("remove samples " + std::to_string(counts[kRemove]));
    out.metrics["setup_s"] = {Median(setup_s), "s"};
    out.metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    std::string setups_note = "setup_s samples (boot + preload)";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      setups_note += ' ' + std::to_string(setup_s[i]) + " (" +
                     std::to_string(boot_s[i]) + " + " +
                     std::to_string(setup_s[i] - boot_s[i]) + ")";
    }
    out.notes.push_back(setups_note);
  } else {
    JoinSpans(spans, out, untraced_mean_us);
    MeasureCodec(*loaders[0], out);
    WriteSpans(spans, options.trace_out);
    ClearSpans();
    if (spec.persistent) {
      std::uint64_t written = 0;
      for (auto& l : loaders) written += l->written_bytes;
      written *= static_cast<std::uint64_t>(copies);
      out.metrics["novoht.write_amp"] = {
          written == 0 ? 0.0
                       : static_cast<double>(log_after - log_before) /
                             static_cast<double>(written),
          "ratio"};
    } else {
      out.metrics["novoht.write_amp"] = {0.0, "ratio"};
    }
  }
  // Applicable-only figures: reported in both modes, by name.
  out.metrics["failed_ratio"] = {
      attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
      "ratio"};
  out.metrics["space_amp"] = {space_amp, "ratio"};
  out.metrics["rebalance_s"] = {Median(rebalancer.durations_s), "s"};
  out.metrics["stall_ms"] = {stall_ms, "ms"};
  out.notes.push_back("rebalance events " +
                      std::to_string(rebalancer.durations_s.size()));
  return out;
}

}  // namespace perfbench
