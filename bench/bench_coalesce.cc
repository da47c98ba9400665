// Cross-query round coalescing: shared round bus vs pipelined-only serving.
//
// Serving phase: a loopback QpfServer with ONE worker — the trusted machine
// as a serial resource, the regime where per-entry latency is the bill —
// answering 64 concurrent single-predicate selection streams over a
// 4-shard index at 300 µs TM latency (override with --tmlat=<ns>). Two
// configurations over identical streams:
//
//   pipelined   RemoteEdbms only: PR-style correlation-id pipelining, one
//               backend entry per logical probe round (the prior baseline)
//   coalesced   net::CoalescedEdbms over the same RemoteEdbms: rounds
//               submitted while the bus's one entry is in flight merge
//               into the next, so concurrent selections share few
//               trusted-machine entries
//
// Reported per configuration: QPS, per-selection p50/p99, logical probe
// rounds (qpf.round_trips — identical accounting in both configs), physical
// trusted-machine entries (tm.round_trips), and entries per logical round.
// Every winner set is checked against the plaintext oracle.
//
// Loopback phase: tmlat=0, no socket — a local CoalescedEdbms over
// CipherbaseEdbms against the bare backend, single stream. A lone stream
// never finds an entry in flight, so every round passes straight through
// and the bus must cost ~nothing: single-query p99 within 5% of
// uncoalesced is the gate.
//
// Gates (full runs; --smoke skips them):
//   coalesced QPS >= 2x pipelined, entries-per-round reduced >= 4x,
//   all winner sets byte-identical to the oracle, loopback p99 <= 1.05x.
//
// Extra flags beyond the common set (bench_util.h):
//   --smoke   tiny configuration, gates skipped (CI schema check)

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "net/coalesce.h"
#include "net/qpf_client.h"
#include "net/qpf_server.h"
#include "prkb/shard.h"
#include "workload/synthetic_table.h"

namespace prkb::bench {
namespace {

using edbms::TupleId;
using edbms::Value;

struct OpStream {
  edbms::AttrId attr = 0;
  std::vector<edbms::Trapdoor> tds;
  std::vector<std::vector<TupleId>> expected;  // oracle winners, sorted
};

/// One fresh-comparison stream per attribute, identical predicates in every
/// configuration; oracle winners precomputed outside the timed region.
std::vector<OpStream> MakeStreams(size_t streams, int ops_per_stream,
                                  const edbms::PlainTable& plain,
                                  edbms::Edbms* issuer, uint64_t seed) {
  std::vector<OpStream> out(streams);
  for (size_t s = 0; s < streams; ++s) {
    out[s].attr = static_cast<edbms::AttrId>(s);
    Rng rng(seed + 31 * s);
    for (int i = 0; i < ops_per_stream; ++i) {
      const Value c = rng.UniformInt64(0, 999'999);
      out[s].tds.push_back(
          issuer->MakeComparison(out[s].attr, edbms::CompareOp::kLt, c));
      std::vector<TupleId> winners;
      for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
        if (plain.at(out[s].attr, tid) < c) winners.push_back(tid);
      }
      out[s].expected.push_back(std::move(winners));
    }
  }
  return out;
}

struct RunResult {
  double millis = 0;
  uint64_t total_ops = 0;
  uint64_t qpf_uses = 0;
  uint64_t logical_rounds = 0;
  uint64_t tm_entries = 0;
  double factor = 1.0;
  Histogram latency_ms;
  std::vector<double> flat_ms;  // per-op latency in stream-major order
  bool results_match = true;
};

/// Drives `streams` concurrently (one thread per stream) through `index`,
/// measuring per-selection wall time and checking winners.
RunResult DriveStreams(core::ShardedPrkbIndex& index,
                       const std::vector<OpStream>& streams,
                       edbms::CipherbaseEdbms& db) {
  RunResult res;
  obs::Counter* trip_counter =
      obs::MetricsRegistry::Global().GetCounter("qpf.round_trips");
  obs::Counter* uses_counter =
      obs::MetricsRegistry::Global().GetCounter("qpf.uses");
  const uint64_t trips0 = trip_counter->value();
  const uint64_t uses0 = uses_counter->value();
  const uint64_t tm0 = db.trusted_machine().round_trips();

  std::vector<std::vector<double>> lat(streams.size());
  std::vector<std::vector<std::vector<TupleId>>> got(streams.size());
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(streams.size());
  for (size_t s = 0; s < streams.size(); ++s) {
    workers.emplace_back([&, s] {
      for (size_t i = 0; i < streams[s].tds.size(); ++i) {
        const auto op0 = std::chrono::steady_clock::now();
        auto winners = index.Select(streams[s].tds[i]);
        const auto op1 = std::chrono::steady_clock::now();
        lat[s].push_back(
            std::chrono::duration<double, std::milli>(op1 - op0).count());
        got[s].push_back(std::move(winners));
      }
    });
  }
  for (auto& w : workers) w.join();
  res.millis = watch.ElapsedMillis();
  res.logical_rounds = trip_counter->value() - trips0;
  res.qpf_uses = uses_counter->value() - uses0;
  res.tm_entries = db.trusted_machine().round_trips() - tm0;
  for (size_t s = 0; s < streams.size(); ++s) {
    res.total_ops += streams[s].tds.size();
    for (const double ms : lat[s]) {
      res.latency_ms.Add(ms);
      res.flat_ms.push_back(ms);
    }
    for (size_t i = 0; i < streams[s].tds.size(); ++i) {
      std::sort(got[s][i].begin(), got[s][i].end());
      if (got[s][i] != streams[s].expected[i]) res.results_match = false;
    }
  }
  return res;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool tmlat_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--tmlat=", 8) == 0) tmlat_given = true;
  }
  BenchArgs args = BenchArgs::Parse(argc, argv, /*default_scale=*/0.001);
  if (!tmlat_given) args.tm_latency_ns = 300'000;

  const size_t rows = ScaledRows(1'000'000, args.scale);
  const size_t streams = smoke ? 8 : 64;
  const int ops = args.queries > 0 ? args.queries : (smoke ? 2 : 6);
  const int loop_queries = smoke ? 40 : 2400;
  PrintBanner("Cross-query round coalescing: shared round bus",
              "beyond-paper serving experiment", args,
              "a serial trusted machine (1 server worker) charges the full "
              "per-entry latency; the round bus merges concurrent "
              "selections' probe rounds into one entry while the previous "
              "entry is in flight, so entries-per-round collapses while "
              "winners stay byte-identical");

  workload::SyntheticSpec spec;
  spec.rows = rows;
  spec.attrs = streams;
  spec.seed = args.seed;
  const auto plain = workload::MakeSyntheticTable(spec);

  JsonBench json("bench_coalesce", args);
  json.Config("rows", static_cast<double>(rows));
  json.Config("streams", static_cast<double>(streams));
  json.Config("ops_per_stream", static_cast<double>(ops));
  json.Config("loopback_queries", static_cast<double>(loop_queries));
  json.Config("server_workers", 1.0);
  json.Config("shards", 4.0);
  json.Config("batch_size", 256.0);
  json.Config("transport", "tcp-loopback");
  json.Config("smoke", smoke ? "true" : "false");

  TablePrinter tp("serial TM serving, " + std::to_string(rows) + " rows x " +
                  std::to_string(streams) + " streams, tmlat " +
                  std::to_string(args.tm_latency_ns) + "ns");
  tp.SetHeader({"mode", "QPS", "p50 ms", "p99 ms", "logical rounds",
                "TM entries", "entries/round", "factor", "match"});

  double pipelined_qps = 0.0;
  double pipelined_epr = 0.0;
  double coalesced_qps = 0.0;
  double coalesced_epr = 0.0;
  bool all_match = true;

  for (const bool coalesce : {false, true}) {
    // Fresh deployment per configuration: chains, caches, counters and the
    // socket pair must not leak across runs.
    auto db = edbms::CipherbaseEdbms::FromPlainTable(args.seed, plain);
    db.trusted_machine().set_call_latency_ns(args.tm_latency_ns);
    net::QpfServerOptions sopts;
    sopts.workers = 1;  // the serial trusted machine is the scarce resource
    net::QpfServer server(&db, sopts);
    if (!server.ServeTcp(0).ok()) {
      std::fprintf(stderr, "cannot start loopback server\n");
      return 1;
    }
    auto conn = net::QpfClient::ConnectTcp("127.0.0.1", server.port());
    if (!conn.ok()) {
      std::fprintf(stderr, "cannot connect: %s\n",
                   conn.status().ToString().c_str());
      return 1;
    }
    auto client = std::move(conn).value();
    net::RemoteEdbms remote(&db, client.get());
    std::unique_ptr<net::CoalescedEdbms> bus;
    edbms::Edbms* front = &remote;
    if (coalesce) {
      bus = std::make_unique<net::CoalescedEdbms>(&remote);
      front = bus.get();
    }

    core::PrkbOptions options;
    options.seed = args.seed;
    options.batch_size = 256;
    options.rt_latency_hint_ns = static_cast<double>(args.tm_latency_ns);
    core::ShardedPrkbIndex index(front, 4, options);
    for (size_t a = 0; a < streams; ++a) {
      index.EnableAttr(static_cast<edbms::AttrId>(a));
    }
    const auto op_streams =
        MakeStreams(streams, ops, plain, front, args.seed + 7);

    RunResult res = DriveStreams(index, op_streams, db);
    if (coalesce) res.factor = bus->CoalescingFactor();
    server.Stop();

    const double qps = res.total_ops / (res.millis / 1000.0);
    const double epr = res.logical_rounds > 0
                           ? static_cast<double>(res.tm_entries) /
                                 static_cast<double>(res.logical_rounds)
                           : 0.0;
    if (coalesce) {
      coalesced_qps = qps;
      coalesced_epr = epr;
    } else {
      pipelined_qps = qps;
      pipelined_epr = epr;
    }
    all_match = all_match && res.results_match;

    const std::string mode = coalesce ? "coalesced" : "pipelined";
    tp.AddRow({mode, TablePrinter::Fmt(qps, 0),
               TablePrinter::Fmt(res.latency_ms.Percentile(50), 2),
               TablePrinter::Fmt(res.latency_ms.Percentile(99), 2),
               std::to_string(res.logical_rounds),
               std::to_string(res.tm_entries), TablePrinter::Fmt(epr, 3),
               TablePrinter::Fmt(res.factor, 2) + "x",
               res.results_match ? "yes" : "NO"});
    json.BeginRow();
    json.Field("phase", "serving");
    json.Field("mode", mode);
    json.Field("streams", static_cast<uint64_t>(streams));
    json.Field("total_ops", res.total_ops);
    json.Field("millis", res.millis);
    json.Field("qps", qps);
    json.Field("p50_ms", res.latency_ms.Percentile(50));
    json.Field("p99_ms", res.latency_ms.Percentile(99));
    json.Field("qpf_uses", res.qpf_uses);
    json.Field("logical_rounds", res.logical_rounds);
    json.Field("tm_entries", res.tm_entries);
    json.Field("entries_per_round", epr);
    json.Field("factor", res.factor);
    json.Field("results_match", res.results_match ? "true" : "false");
  }
  tp.Print();

  // Loopback phase: no socket, no TM latency, single stream — the bus must
  // be a passthrough (a lone stream never finds an entry in flight).
  TablePrinter lp("loopback single-stream, " + std::to_string(rows) +
                  " rows, tmlat 0");
  lp.SetHeader({"mode", "QPS", "p50 ms", "p99 ms", "logical rounds",
                "TM entries", "match"});
  double plain_p99 = 0.0;
  double bus_p99 = 0.0;
  // Both modes replay the identical deterministic query sequence, so the
  // honest estimator on a noisy host is paired-by-query: run several fresh
  // deployments per mode, take each query's MEDIAN latency across trials
  // (killing per-deployment jitter — deployments here vary ±30% for
  // identical code), then compare percentiles over those medians. The gate
  // asks about the bus's intrinsic overhead, not the OS's worst moment.
  const int trials = smoke ? 1 : 7;
  // perq[mode][q] = that query's latency in each trial.
  std::vector<std::vector<double>> perq[2];
  perq[0].resize(loop_queries);
  perq[1].resize(loop_queries);
  RunResult agg[2];
  double bus_factor = 1.0;
  for (int trial = 0; trial < trials; ++trial) {
    // Alternate which mode runs first: within-process heap growth and cache
    // state systematically penalise whichever deployment runs later in a
    // trial, so a fixed order would bias the comparison.
    const bool first = (trial % 2) != 0;
    for (const bool coalesce : {first, !first}) {
      auto db = edbms::CipherbaseEdbms::FromPlainTable(args.seed, plain);
      std::unique_ptr<net::CoalescedEdbms> bus;
      edbms::Edbms* front = &db;
      if (coalesce) {
        bus = std::make_unique<net::CoalescedEdbms>(&db);
        front = bus.get();
      }
      core::PrkbOptions options;
      options.seed = args.seed;
      options.batch_size = 256;
      core::ShardedPrkbIndex index(front, 1, options);
      index.EnableAttr(0);
      // Warm the chain and the allocator identically in both modes before
      // the measured window, so the comparison is not first-touch noise.
      const int warm = smoke ? 5 : 150;
      const auto warm_streams =
          MakeStreams(1, warm, plain, front, args.seed + 29);
      for (const auto& td : warm_streams[0].tds) index.Select(td);
      const auto op_streams =
          MakeStreams(1, loop_queries, plain, front, args.seed + 13);
      RunResult r = DriveStreams(index, op_streams, db);
      const int mi = coalesce ? 1 : 0;
      if (coalesce) bus_factor = bus->CoalescingFactor();
      for (size_t q = 0; q < r.flat_ms.size(); ++q) {
        perq[mi][q].push_back(r.flat_ms[q]);
      }
      agg[mi].millis += r.millis;
      agg[mi].total_ops += r.total_ops;
      agg[mi].qpf_uses += r.qpf_uses;
      agg[mi].logical_rounds += r.logical_rounds;
      agg[mi].tm_entries += r.tm_entries;
      agg[mi].results_match = agg[mi].results_match && r.results_match;
    }
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (const bool coalesce : {false, true}) {
    const int mi = coalesce ? 1 : 0;
    const RunResult& res = agg[mi];
    const double qps = res.total_ops / (res.millis / 1000.0);
    Histogram med_hist;
    for (auto& samples : perq[mi]) med_hist.Add(median(samples));
    const double p50 = med_hist.Percentile(50);
    const double p99 = med_hist.Percentile(99);
    if (coalesce) {
      bus_p99 = p99;
    } else {
      plain_p99 = p99;
    }
    all_match = all_match && res.results_match;
    const std::string mode = coalesce ? "coalesced" : "uncoalesced";
    lp.AddRow({mode, TablePrinter::Fmt(qps, 0), TablePrinter::Fmt(p50, 3),
               TablePrinter::Fmt(p99, 3), std::to_string(res.logical_rounds),
               std::to_string(res.tm_entries),
               res.results_match ? "yes" : "NO"});
    json.BeginRow();
    json.Field("phase", "loopback");
    json.Field("mode", mode);
    json.Field("streams", static_cast<uint64_t>(1));
    json.Field("total_ops", res.total_ops);
    json.Field("millis", res.millis);
    json.Field("qps", qps);
    json.Field("p50_ms", p50);
    json.Field("p99_ms", p99);
    json.Field("qpf_uses", res.qpf_uses);
    json.Field("logical_rounds", res.logical_rounds);
    json.Field("tm_entries", res.tm_entries);
    json.Field("entries_per_round",
               res.logical_rounds > 0
                   ? static_cast<double>(res.tm_entries) /
                         static_cast<double>(res.logical_rounds)
                   : 0.0);
    json.Field("factor", coalesce ? bus_factor : 1.0);
    json.Field("results_match", res.results_match ? "true" : "false");
  }
  lp.Print();

  const double speedup = pipelined_qps > 0 ? coalesced_qps / pipelined_qps : 0;
  const double reduction = coalesced_epr > 0 ? pipelined_epr / coalesced_epr : 0;
  const double p99_ratio = plain_p99 > 0 ? bus_p99 / plain_p99 : 0;
  const bool gate_qps = speedup >= 2.0;
  const bool gate_entries = reduction >= 4.0;
  const bool gate_p99 = p99_ratio <= 1.05;

  json.Config("speedup_vs_pipelined", speedup);
  json.Config("entry_reduction", reduction);
  json.Config("loopback_p99_ratio", p99_ratio);
  json.Config("all_results_match", all_match ? "true" : "false");
  json.Config("gate_coalesce_2x_qps",
              smoke ? "skipped" : (gate_qps ? "pass" : "fail"));
  json.Config("gate_entry_reduction_4x",
              smoke ? "skipped" : (gate_entries ? "pass" : "fail"));
  json.Config("gate_loopback_p99_5pct",
              smoke ? "skipped" : (gate_p99 ? "pass" : "fail"));

  std::printf("winner sets vs oracle: %s\n",
              all_match ? "all match" : "MISMATCH");
  std::printf("coalesced vs pipelined: %.2fx QPS, %.2fx fewer TM entries "
              "per logical round\n",
              speedup, reduction);
  std::printf("loopback p99 coalesced/uncoalesced: %.3f\n", p99_ratio);
  if (!smoke) {
    std::printf("gate (QPS >= 2x): %s\n", gate_qps ? "pass" : "FAIL");
    std::printf("gate (entries/round reduced >= 4x): %s\n",
                gate_entries ? "pass" : "FAIL");
    std::printf("gate (loopback p99 within 5%%): %s\n",
                gate_p99 ? "pass" : "FAIL");
  }
  json.WriteIfRequested(args);
  if (!all_match) return 1;
  if (!smoke && !(gate_qps && gate_entries && gate_p99)) return 1;
  return 0;
}

}  // namespace
}  // namespace prkb::bench

int main(int argc, char** argv) { return prkb::bench::Main(argc, argv); }
