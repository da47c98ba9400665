// prkb_shell — interactive console over an encrypted demo table.
//
//   $ ./tools/prkb_shell [--rows=N] [--attrs=K] [--seed=S] [--shards=N]
//                        [--remote] [--bus] [--wal-dir=<dir>]
//
// Accepts the mini-SQL subset on stdin plus dot-commands:
//   SELECT * FROM t WHERE c0 < 100 AND c1 BETWEEN 5 AND 9
//   EXPLAIN SELECT ...  cost-based physical plan with estimates, no execution
//   .explain          last executed statement's plan with actual QPF costs
//   .stats            chain shape per attribute
//   .cache            repeat-predicate fast-path state (entries, hits/misses);
//                     with --remote, also the net.* transport counters
//                     fetched from the serving process over the wire
//   .cost             calibrated cost-model state: fitted eval/latency
//                     constants and per-route win/loss/error telemetry
//                     (per shard with --shards=N)
//   .shards           per-shard chain/op tallies plus lock/queue telemetry
//                     (requires --shards=N)
//   .wal              durability status: log/snapshot sizes, appended and
//                     replayed record counts, fsyncs, compactions
//                     (requires --wal-dir)
//   .bus              round-bus state: live coalescing factor, backend
//                     entries in flight and rounds queued behind them,
//                     rounds/requests carried, backend entries,
//                     merged rounds, cross-request trapdoor dedups and
//                     overflow splits (requires --bus); with --remote, also
//                     the serving process's net.*/qpf.* counters over the
//                     wire, like .cache
//
// Note: retyping a SELECT re-issues its trapdoor through the data owner,
// which seals with a fresh nonce — different bytes, so the fast path misses
// by design (DESIGN.md §9). Hits require re-sending the *same* trapdoor,
// the prepared-statement model the fast-path tests and bench exercise.
//   .insert v0 v1 ..  insert a row (one value per attribute)
//   .delete <tid>     tombstone a tuple
//   .save <path>      snapshot the PRKB
//   .load <path>      restore a snapshot
//   .help / .quit
//
// Deployment flags:
//   --shards=N   serve the index as N attribute-hash shards
//                (ShardedPrkbIndex). EXPLAIN / .explain / .save / .load are
//                unavailable in sharded mode; SELECTs are routed directly.
//   --remote     host the QPF behind a loopback QpfServer and evaluate every
//                Θ over a real socket (RemoteEdbms), as a served deployment
//                would. Composes with --shards.
//   --bus        ride every Θ round over a round bus (CoalescedEdbms,
//                DESIGN.md §15), merging concurrent selections' probe
//                rounds into shared backend entries. Composes with --remote
//                (the merge point sits in front of the socket) and
//                --shards.
//   --wal-dir=D  make the index durable under D (docs/PERSISTENCE.md):
//                state recovered on start — chains enabled in a previous
//                WAL-backed session come back warm, repeats stay zero-QPF —
//                and every chain mutation is logged from then on. Composes
//                with --shards (one WAL per shard under D/shard-N).
//
// Useful both as a demo and for poking at the index by hand.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "net/coalesce.h"
#include "net/qpf_client.h"
#include "net/qpf_server.h"
#include "prkb/concurrent.h"
#include "prkb/prkb_io.h"
#include "prkb/selection.h"
#include "prkb/shard.h"
#include "prkb/wal.h"
#include "query/alt_routes.h"
#include "query/parser.h"
#include "query/planner.h"
#include "workload/synthetic_table.h"

namespace {

using namespace prkb;

struct ShellOptions {
  size_t rows = 20000;
  size_t attrs = 2;
  uint64_t seed = 42;
  size_t shards = 0;  // 0 = unsharded planner mode
  bool remote = false;
  bool bus = false;
  std::string wal_dir;  // empty = not durable
};

ShellOptions ParseOptions(int argc, char** argv) {
  ShellOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      opt.rows = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--attrs=", 8) == 0) {
      opt.attrs = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      opt.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      opt.shards = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strcmp(argv[i], "--remote") == 0) {
      opt.remote = true;
    } else if (std::strcmp(argv[i], "--bus") == 0) {
      opt.bus = true;
    } else if (std::strncmp(argv[i], "--wal-dir=", 10) == 0) {
      opt.wal_dir = argv[i] + 10;
    }
  }
  return opt;
}

void PrintHelp(const ShellOptions& opt) {
  std::printf(
      "commands:\n"
      "  SELECT * FROM t WHERE c0 < 100 AND c1 BETWEEN 5 AND 9\n"
      "  EXPLAIN SELECT ...   (plan + cost estimates, no execution)\n"
      "  .explain | .stats | .cache | .cost | .insert v0 v1 .. |"
      " .delete <tid> | .save <p> | .load <p>\n"
      "  .shards | .wal | .bus | .help | .quit\n");
  if (opt.shards > 0) {
    std::printf("(sharded mode: EXPLAIN/.explain/.save/.load unavailable)\n");
  }
  if (opt.remote) {
    std::printf("(remote mode: QPF evaluations cross a loopback socket)\n");
  }
  if (opt.bus) {
    std::printf("(bus mode: probe rounds merge on a shared round bus)\n");
  }
  if (!opt.wal_dir.empty()) {
    std::printf("(durable: chain mutations logged under %s)\n",
                opt.wal_dir.c_str());
  }
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// net.* / qpf.* rows of the serving process, over the stats RPC — the same
/// answer a shell attached to a genuinely remote server would get.
void PrintRemoteCounters(net::QpfClient* client) {
  auto stats = client->FetchStats();
  if (!stats.ok()) {
    std::printf("stats fetch failed: %s\n",
                stats.status().ToString().c_str());
    return;
  }
  std::printf("serving process counters (over the wire):\n");
  for (const auto& [name, value] : stats.value()) {
    if (name.rfind("net.", 0) == 0 || name.rfind("qpf.", 0) == 0) {
      std::printf("  %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  std::printf("  %-24s %lld\n", "net.inflight",
              static_cast<long long>(
                  obs::MetricsRegistry::Global().GetGauge("net.inflight")
                      ->value()));
}

void PrintShardReport(const core::ShardedPrkbIndex& sharded,
                      const net::QpfServer* server) {
  for (const auto& r : sharded.Describe()) {
    std::printf("shard %zu: %zu chain(s), %zu tuple-slot(s), %zu bytes, "
                "%llu select(s), %llu placement(s)\n",
                r.shard, r.chains, r.tuples, r.bytes,
                static_cast<unsigned long long>(r.selects),
                static_cast<unsigned long long>(r.placements));
    for (const edbms::AttrId attr : r.attrs) {
      const auto cs = sharded.StatsFor(attr);
      std::printf("  attr %u: k=%zu cuts=%zu tuples=%zu\n", attr, cs.k,
                  cs.cuts, cs.tuples);
    }
  }
  std::printf("locks: %llu shared, %llu exclusive, %llu select retr(ies)\n",
              static_cast<unsigned long long>(
                  CounterValue("prkb.lock.shared_acquisitions")),
              static_cast<unsigned long long>(
                  CounterValue("prkb.lock.exclusive_acquisitions")),
              static_cast<unsigned long long>(
                  CounterValue("prkb.lock.select_retries")));
  std::printf(
      "routing: %llu routed, %llu md co-located, %llu md composed\n",
      static_cast<unsigned long long>(CounterValue("shard.selects_routed")),
      static_cast<unsigned long long>(CounterValue("shard.md_colocated")),
      static_cast<unsigned long long>(CounterValue("shard.md_composed")));
  if (server != nullptr) {
    std::printf("queue: %llu frame(s) served, inflight now %lld\n",
                static_cast<unsigned long long>(server->frames_served()),
                static_cast<long long>(
                    obs::MetricsRegistry::Global().GetGauge("net.inflight")
                        ->value()));
  }
}

/// Compiles and routes one parsed statement against the sharded index.
void RunSharded(const query::SelectStatement& stmt, const query::Catalog& cat,
                edbms::Edbms* issuer, core::ShardedPrkbIndex* sharded) {
  if (stmt.explain) {
    std::printf("error: EXPLAIN is unavailable in sharded mode\n");
    return;
  }
  std::vector<edbms::Trapdoor> tds;
  for (const query::Condition& cond : stmt.conditions) {
    const auto attr = cat.ResolveColumn(stmt.table, cond.column);
    if (!attr.ok()) {
      std::printf("error: %s\n", attr.status().ToString().c_str());
      return;
    }
    if (cond.kind == query::Condition::Kind::kBetween) {
      tds.push_back(issuer->MakeBetween(attr.value(), cond.lo, cond.hi));
    } else {
      tds.push_back(issuer->MakeComparison(attr.value(), cond.op, cond.lo));
    }
  }
  edbms::SelectionStats stats;
  std::vector<edbms::TupleId> rows;
  const char* route = "";
  if (tds.empty()) {
    for (edbms::TupleId tid = 0; tid < issuer->num_rows(); ++tid) {
      if (issuer->IsLive(tid)) rows.push_back(tid);
    }
    route = "full-table";
  } else if (tds.size() == 1) {
    rows = sharded->Select(tds[0], &stats);
    route = "shard-select";
  } else {
    rows = sharded->SelectRangeMd(tds, &stats);
    route = "shard-md";
  }
  std::printf("%zu rows  [%s, qpf_uses=%llu, %.2f ms]\n", rows.size(), route,
              static_cast<unsigned long long>(stats.qpf_uses), stats.millis);
  for (size_t i = 0; i < rows.size() && i < 10; ++i) {
    std::printf("  tid %u\n", rows[i]);
  }
  if (rows.size() > 10) {
    std::printf("  ... (%zu more)\n", rows.size() - 10);
  }
}

void PrintWalStats(const char* label, const core::PrkbWal& wal) {
  const core::PrkbWal::Stats s = wal.stats();
  std::printf(
      "%s%s: log %llu byte(s) (%llu pending), %llu record(s) appended "
      "(%llu bytes) over %llu commit(s) / %llu fsync(s); recovery replayed "
      "%llu record(s); %llu compaction(s)%s\n",
      label, wal.dir().c_str(),
      static_cast<unsigned long long>(s.log_bytes),
      static_cast<unsigned long long>(s.pending_bytes),
      static_cast<unsigned long long>(s.appended_records),
      static_cast<unsigned long long>(s.appended_bytes),
      static_cast<unsigned long long>(s.commits),
      static_cast<unsigned long long>(s.fsyncs),
      static_cast<unsigned long long>(s.replayed_records),
      static_cast<unsigned long long>(s.compactions),
      wal.compact_pending() ? " [compaction pending]" : "");
}

}  // namespace

int main(int argc, char** argv) {
  const ShellOptions opt = ParseOptions(argc, argv);

  workload::SyntheticSpec spec;
  spec.rows = opt.rows;
  spec.attrs = opt.attrs;
  spec.domain_lo = 0;
  spec.domain_hi = 1'000'000;
  spec.seed = opt.seed;
  const edbms::PlainTable plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(opt.seed, plain);

  // Remote mode: host the local backend behind a loopback server and make
  // every Θ evaluation a real round trip through the client.
  std::unique_ptr<net::QpfServer> server;
  std::unique_ptr<net::QpfClient> client;
  std::unique_ptr<net::RemoteEdbms> remote;
  edbms::Edbms* backend = &db;
  if (opt.remote) {
    server = std::make_unique<net::QpfServer>(&db);
    const Status s = server->ServeTcp(0);
    if (!s.ok()) {
      std::printf("cannot start QPF server: %s\n", s.ToString().c_str());
      return 1;
    }
    auto conn = net::QpfClient::ConnectTcp("127.0.0.1", server->port());
    if (!conn.ok()) {
      std::printf("cannot connect QPF client: %s\n",
                  conn.status().ToString().c_str());
      return 1;
    }
    client = std::move(conn).value();
    remote = std::make_unique<net::RemoteEdbms>(&db, client.get());
    backend = remote.get();
    std::printf("QPF served on 127.0.0.1:%u\n", server->port());
  }

  // Bus mode: the merge point sits in front of whatever backend the flags
  // built — the socket client in remote mode, the local oracle otherwise.
  std::unique_ptr<net::CoalescedEdbms> bus_db;
  if (opt.bus) {
    bus_db = std::make_unique<net::CoalescedEdbms>(backend);
    backend = bus_db.get();
  }

  const core::PrkbOptions prkb_opts{.seed = opt.seed};
  core::PrkbIndex index(backend, prkb_opts);
  std::unique_ptr<core::ShardedPrkbIndex> sharded;
  if (opt.shards > 0) {
    sharded =
        std::make_unique<core::ShardedPrkbIndex>(backend, opt.shards, prkb_opts);
  }
  // Durability: open (and recover from) the WAL before enabling attributes,
  // so chains a previous session already paid for come back instead of
  // being re-initialised from scratch.
  std::unique_ptr<core::PrkbWal> wal;  // unsharded mode only
  if (!opt.wal_dir.empty()) {
    if (sharded != nullptr) {
      const Status s = sharded->OpenWal(opt.wal_dir);
      if (!s.ok()) {
        std::printf("cannot open WAL: %s\n", s.ToString().c_str());
        return 1;
      }
    } else {
      auto w = core::PrkbWal::Open(&index, opt.wal_dir);
      if (!w.ok()) {
        std::printf("cannot open WAL: %s\n", w.status().ToString().c_str());
        return 1;
      }
      wal = std::move(w).value();
      if (wal->stats().replayed_records > 0 || index.EnabledAttrs().size() > 0) {
        std::printf("recovered %zu chain(s) from %s (%llu log record(s) "
                    "replayed)\n",
                    index.EnabledAttrs().size(), opt.wal_dir.c_str(),
                    static_cast<unsigned long long>(
                        wal->stats().replayed_records));
      }
    }
  }

  query::Catalog catalog;
  std::vector<std::string> columns;
  for (size_t a = 0; a < opt.attrs; ++a) {
    const auto attr = static_cast<edbms::AttrId>(a);
    columns.push_back("c" + std::to_string(a));
    if (sharded != nullptr) {
      if (!sharded->IsEnabled(attr)) sharded->EnableAttr(attr);
    } else if (!index.IsEnabled(attr)) {
      index.EnableAttr(attr);
    }
  }
  catalog.RegisterTable("t", columns);
  query::Planner planner(&catalog, backend, &index);

  // Alternative routes on c0 (local unsharded mode only — SRC-i confirmation
  // enters the TM directly, which a remote deployment routes differently):
  // SRC-i competes for real, OPE is costed-but-inadmissible so EXPLAIN shows
  // what the leakage budget is paying (docs/COST_MODEL.md).
  std::unique_ptr<query::SrciRoute> srci_route;
  std::unique_ptr<query::OpeRoute> ope_route;
  if (!opt.remote && sharded == nullptr && opt.attrs > 0) {
    srci_route = std::make_unique<query::SrciRoute>(
        &db, /*attr=*/0, spec.domain_lo, spec.domain_hi);
    ope_route = std::make_unique<query::OpeRoute>(
        &db, /*attr=*/0, plain.column(0), /*key=*/opt.seed ^ 0x09e5u);
    planner.RegisterAltRoute(srci_route.get());
    planner.RegisterAltRoute(ope_route.get());
  }

  std::string deployment;
  if (opt.shards > 0) {
    deployment.append(", ").append(std::to_string(opt.shards)).append(
        " shards");
  }
  std::printf(
      "prkb_shell: table 't' with %zu encrypted rows, columns c0..c%zu, "
      "domain [0, 1000000]%s\n",
      db.num_rows(), opt.attrs - 1, deployment.c_str());
  PrintHelp(opt);

  std::string line;
  std::optional<query::ExecutionResult> last;
  while (true) {
    std::printf("prkb> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;

    if (line[0] == '.') {
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        PrintHelp(opt);
      } else if (cmd == ".explain") {
        if (sharded != nullptr) {
          std::printf(".explain is unavailable in sharded mode\n");
        } else if (!last.has_value()) {
          std::printf("no statement executed yet\n");
        } else {
          // Re-render the last plan: after execution each operator also
          // carries its actual QPF spend next to the estimate.
          std::printf("%s", last->Explain().c_str());
        }
      } else if (cmd == ".stats") {
        if (sharded != nullptr) {
          for (const edbms::AttrId attr : sharded->EnabledAttrs()) {
            const auto cs = sharded->StatsFor(attr);
            std::printf("attr %u (shard %zu): k=%zu cuts=%zu tuples=%zu\n",
                        attr, sharded->ShardOf(attr), cs.k, cs.cuts,
                        cs.tuples);
          }
        } else {
          std::printf("%s", index.DescribeStats().c_str());
        }
      } else if (cmd == ".cost") {
        if (sharded != nullptr) {
          for (size_t i = 0; i < sharded->num_shards(); ++i) {
            std::printf("shard %zu:\n%s", i,
                        sharded->shard(i).calibrator().Describe().c_str());
          }
        } else {
          std::printf("%s", index.calibrator().Describe().c_str());
        }
      } else if (cmd == ".shards") {
        if (sharded == nullptr) {
          std::printf("not sharded; start with --shards=N\n");
        } else {
          PrintShardReport(*sharded, server.get());
        }
      } else if (cmd == ".wal") {
        if (opt.wal_dir.empty()) {
          std::printf("not durable; start with --wal-dir=<dir>\n");
        } else if (sharded != nullptr) {
          for (size_t i = 0; i < sharded->num_shards(); ++i) {
            const core::PrkbWal* w = sharded->shard(i).wal();
            if (w == nullptr) continue;
            std::printf("shard %zu ", i);
            PrintWalStats("", *w);
          }
        } else {
          PrintWalStats("", *wal);
        }
      } else if (cmd == ".bus") {
        if (bus_db == nullptr) {
          std::printf("no round bus; start with --bus\n");
        } else {
          const net::RoundBus::Stats bs = bus_db->bus().stats();
          std::printf(
              "round bus: factor %.2fx, %llu entr(ies) in flight, %llu "
              "round(s) queued\n"
              "  %llu round(s) / %llu request(s) over %llu backend "
              "entr(ies)\n"
              "  %llu merged round(s), %llu trapdoor dedup(s), %llu "
              "overflow split(s)\n",
              bs.factor, static_cast<unsigned long long>(bs.in_flight),
              static_cast<unsigned long long>(bs.queued),
              static_cast<unsigned long long>(bs.rounds),
              static_cast<unsigned long long>(bs.requests),
              static_cast<unsigned long long>(bs.entries),
              static_cast<unsigned long long>(bs.merged_rounds),
              static_cast<unsigned long long>(bs.dedup_tds),
              static_cast<unsigned long long>(bs.overflow_splits));
          if (client != nullptr) PrintRemoteCounters(client.get());
        }
      } else if (cmd == ".cache") {
        const auto print_entries = [](edbms::AttrId attr, size_t entries) {
          std::printf("attr %u: %zu cached predicate(s)\n", attr, entries);
        };
        if (sharded != nullptr) {
          for (const edbms::AttrId attr : sharded->EnabledAttrs()) {
            sharded->shard(sharded->ShardOf(attr))
                .WithLocked([&](core::PrkbIndex& idx) {
                  print_entries(attr, idx.pop(attr).fast_path_entries());
                  return 0;
                });
          }
        } else {
          for (const edbms::AttrId attr : index.EnabledAttrs()) {
            print_entries(attr, index.pop(attr).fast_path_entries());
          }
        }
        const core::CacheMetrics& cm = core::CacheMetrics::Get();
        std::printf("session: %llu hit(s), %llu miss(es)\n",
                    static_cast<unsigned long long>(cm.hits->value()),
                    static_cast<unsigned long long>(cm.misses->value()));
        if (client != nullptr) PrintRemoteCounters(client.get());
      } else if (cmd == ".insert") {
        std::vector<edbms::Value> row;
        edbms::Value v;
        while (in >> v) row.push_back(v);
        if (row.size() != opt.attrs) {
          std::printf("need %zu values\n", opt.attrs);
          continue;
        }
        edbms::SelectionStats st;
        const auto tid = sharded != nullptr ? sharded->Insert(row, &st)
                                            : index.Insert(row, &st);
        std::printf("inserted tuple %u (%llu QPF uses)\n", tid,
                    static_cast<unsigned long long>(st.qpf_uses));
      } else if (cmd == ".delete") {
        edbms::TupleId tid;
        if (!(in >> tid) || tid >= db.num_rows()) {
          std::printf("usage: .delete <tid>\n");
          continue;
        }
        if (sharded != nullptr) {
          sharded->Delete(tid);
        } else {
          index.Delete(tid);
        }
        std::printf("tombstoned tuple %u\n", tid);
      } else if (cmd == ".save" || cmd == ".load") {
        if (sharded != nullptr) {
          std::printf("%s is unavailable in sharded mode\n", cmd.c_str());
          continue;
        }
        std::string path;
        if (!(in >> path)) {
          std::printf("usage: %s <path>\n", cmd.c_str());
          continue;
        }
        const Status s = cmd == ".save" ? core::SavePrkb(index, path)
                                        : core::LoadPrkb(&index, path);
        std::printf("%s\n", s.ToString().c_str());
      } else {
        std::printf("unknown command %s\n", cmd.c_str());
      }
      continue;
    }

    if (sharded != nullptr) {
      auto stmt = query::Parse(line);
      if (!stmt.ok()) {
        std::printf("error: %s\n", stmt.status().ToString().c_str());
        continue;
      }
      RunSharded(stmt.value(), catalog, backend, sharded.get());
      continue;
    }

    auto res = planner.ExecuteSql(line);
    if (!res.ok()) {
      std::printf("error: %s\n", res.status().ToString().c_str());
      continue;
    }
    if (res->explain_only) {
      std::printf("%s", res->Explain().c_str());
      continue;
    }
    std::printf("%zu rows  [%s, qpf_uses=%llu, %.2f ms]\n", res->rows.size(),
                res->plan.c_str(),
                static_cast<unsigned long long>(res->stats.qpf_uses),
                res->stats.millis);
    for (size_t i = 0; i < res->rows.size() && i < 10; ++i) {
      std::printf("  tid %u\n", res->rows[i]);
    }
    if (res->rows.size() > 10) {
      std::printf("  ... (%zu more)\n", res->rows.size() - 10);
    }
    last = std::move(*res);
  }
  return 0;
}
